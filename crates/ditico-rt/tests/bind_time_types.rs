//! Cross-site type stamps: an `import` whose statically inferred
//! expectation disagrees with the exporter's interface is refused by the
//! name service *at bind time* — the importer gets a typed error instead
//! of a protocol failure mid-reduction, and the exporting site stays live.

use ditico_rt::{Cluster, LinkProfile, RunLimits, SiteInterface};
use tyco_vm::codec::TypeStamp;
use tyco_vm::VmError;

fn compile(src: &str) -> tyco_vm::Program {
    tyco_vm::compile(&tyco_syntax::parse_core(src).unwrap()).unwrap()
}

fn stamp(canonical: &str) -> TypeStamp {
    let t = tyco_types::parse_canonical(canonical).expect("canonical parses");
    TypeStamp {
        fingerprint: tyco_types::fingerprint(&t),
        canonical: tyco_types::canonical(&t),
    }
}

fn two_site_cluster(expect: TypeStamp, export: TypeStamp) -> Cluster {
    let mut cluster = Cluster::new(LinkProfile::ideal(), 1);
    let n0 = cluster.add_node();
    let n1 = cluster.add_node();

    let mut server_iface = SiteInterface::default();
    server_iface.exports.insert("p".to_string(), export);
    cluster.add_site_with_interface(
        n0,
        "server",
        compile("export new p in p?{ go(n) = print(n), halt() = 0 }"),
        server_iface,
    );

    let mut client_iface = SiteInterface::default();
    client_iface
        .imports
        .insert(("server".to_string(), "p".to_string()), expect);
    cluster.add_site_with_interface(
        n1,
        "client",
        compile("import p from server in p!go[1]"),
        client_iface,
    );
    cluster
}

#[test]
fn mismatched_stamps_refused_at_bind_time_and_exporter_stays_live() {
    // The client claims `p` speaks `^{val(bool)}`; the server registered
    // it as a go/halt protocol. (The static env-level check would catch
    // this before deployment; driving the cluster directly simulates
    // independently deployed sites whose only meeting point is the NS.)
    let mut cluster = two_site_cluster(stamp("^{val(bool)}"), stamp("^{go(int),halt()}"));
    let report = cluster.run_deterministic(RunLimits::default());

    // The importer is refused with a typed bind-time error…
    let client_err = report
        .errors
        .iter()
        .find(|(s, _)| s == "client")
        .map(|(_, e)| e.clone())
        .expect("client import must be refused");
    match client_err {
        VmError::ImportFailed(reason) => {
            assert!(reason.contains("type mismatch at bind time"), "{reason}");
            assert!(reason.contains("^{go(int),halt()}"), "{reason}");
        }
        other => panic!("unexpected error {other:?}"),
    }
    // …the message was never delivered, and the server never faulted: the
    // exporting site stays live, parked on its receiver.
    assert!(
        !report.errors.iter().any(|(s, _)| s == "server"),
        "{:?}",
        report.errors
    );
    assert!(report.output("server").is_empty());
}

#[test]
fn matching_stamps_bind_and_deliver() {
    let protocol = stamp("^{go(int),halt()}");
    let mut cluster = two_site_cluster(protocol.clone(), protocol);
    let report = cluster.run_deterministic(RunLimits::default());
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    assert_eq!(report.output("server"), ["1".to_string()]);
}
