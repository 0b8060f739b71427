//! # tyco-vm
//!
//! The TyCO virtual machine (§5 of the DiTyCO paper), from scratch:
//!
//! * [`compile()`] — DiTyCO source → byte-code blocks (the "intermediate
//!   virtual machine assembly" is recoverable with [`emit_asm`]);
//! * [`program`] — blocks, method tables, symbol pools, code closures;
//! * [`machine`] — the threaded emulator with heap, run-queue, export
//!   table, mark–sweep GC and the re-implemented `trmsg` / `trobj` /
//!   `instof` instructions that dispatch on local vs. network references;
//! * [`wire`] — packaging and dynamic linking of mobile byte-code
//!   (SHIPO / FETCH payloads);
//! * [`codec`] — the hardware-independent byte encoding of packets;
//! * [`port`] — the VM ↔ daemon interface ([`port::NetPort`]) with an
//!   in-process [`port::LoopbackPort`];
//! * [`stats`] — instruction/thread/mobility counters (granularity
//!   histogram for experiment C1).

pub mod asm;
pub mod codec;
pub mod compile;
pub mod digest;
pub mod fuse;
pub mod image;
pub mod machine;
pub mod port;
pub mod program;
pub mod stats;
pub mod verify;
pub mod wire;
pub mod word;

pub use asm::{emit as emit_asm, parse as parse_asm, AsmError};
pub use codec::TypeStamp;
pub use compile::{compile, CompileError};
pub use digest::Digest;
pub use fuse::{fuse_code, fuse_program, unfuse_code};
pub use image::{from_bytes as image_from_bytes, to_bytes as image_to_bytes};
pub use machine::{binop, unop, Machine, SliceStatus, VmError};
pub use port::{FetchReplyNow, ImportReply, Incoming, LoopbackPort, NetPort};
pub use program::{
    Block, BlockId, ImportKind, Instr, LabelId, MethodTable, Pool, Program, StrId, TableId,
};
pub use stats::{ExecStats, Histogram};
pub use verify::{verify_program, verify_wire, VerifyError};
pub use wire::{
    link, link_trusted, pack, LinkMap, Packed, ReleaseRun, WireCode, WireGroup, WireObj, WireWord,
};
pub use word::{ChanRef, ClassRefW, Identity, NetRef, NodeId, SiteId, Word};
