//! A compiled DiTyCO program: AST, types and byte-code in one value, and
//! the front (parse, check) and back (compile) halves that produce it.

use std::fmt;
use tyco_syntax::ast::Proc;
use tyco_types::TypeSummary;
use tyco_vm::Program as Code;

/// Anything that can go wrong between source text and byte-code.
#[derive(Debug, Clone, PartialEq)]
pub enum ProgramError {
    Parse(String),
    Type(String),
    Compile(String),
}

impl fmt::Display for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramError::Parse(e) => write!(f, "parse error: {e}"),
            ProgramError::Type(e) => write!(f, "type error: {e}"),
            ProgramError::Compile(e) => write!(f, "compile error: {e}"),
        }
    }
}

impl std::error::Error for ProgramError {}

/// A fully processed site program.
#[derive(Debug, Clone)]
pub struct Program {
    /// Desugared AST (core syntax).
    pub ast: Proc,
    /// The static half of the hybrid type check: exported interface and
    /// import expectations.
    pub types: TypeSummary,
    /// Compiled byte-code.
    pub code: Code,
}

impl Program {
    /// Parse, desugar, type-check and compile.
    pub fn compile(source: &str) -> Result<Program, ProgramError> {
        let (ast, types) = Program::front_end(source)?;
        let code = Program::back_end(&ast)?;
        Ok(Program { ast, types, code })
    }

    /// The front half: parse, desugar and type-check.
    pub fn front_end(source: &str) -> Result<(Proc, TypeSummary), ProgramError> {
        let ast =
            tyco_syntax::parse_core(source).map_err(|e| ProgramError::Parse(e.to_string()))?;
        let types = tyco_types::check(&ast).map_err(|e| ProgramError::Type(e.to_string()))?;
        Ok((ast, types))
    }

    /// The back half: compile a checked AST to byte-code.
    pub fn back_end(ast: &Proc) -> Result<Code, ProgramError> {
        let code = tyco_vm::compile(ast).map_err(|e| ProgramError::Compile(e.to_string()))?;
        // Regression oracle: well-typed source must compile to code the
        // byte-code verifier accepts. A failure here is a compiler bug.
        #[cfg(debug_assertions)]
        if let Err(e) = tyco_vm::verify_program(&code) {
            panic!("verifier rejects compiler output for well-typed source: {e}");
        }
        Ok(code)
    }

    /// The canonical (desugared) form of the program.
    pub fn pretty(&self) -> String {
        tyco_syntax::pretty::pretty(&self.ast)
    }

    /// Disassembled byte-code (the VM assembly of §5).
    pub fn disassemble(&self) -> String {
        tyco_vm::emit_asm(&self.code)
    }

    /// Byte-code size in instructions (compactness metric, experiment C7).
    pub fn instr_count(&self) -> usize {
        self.code.instr_count()
    }

    /// Run the static byte-code verifier over the compiled image — the
    /// same abstract interpretation the runtime applies to fetched and
    /// shipped code before linking it.
    pub fn verify(&self) -> Result<(), tyco_vm::VerifyError> {
        tyco_vm::verify_program(&self.code)
    }

    /// The usage pass over the source: orphan messages and objects,
    /// unreachable methods, never-instantiated classes and orphan sends,
    /// each with its position (`ditico check --lint`).
    pub fn findings(&self) -> Vec<tyco_types::Finding> {
        tyco_types::findings(&self.ast)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compiles_the_cell() {
        let p = Program::compile(
            r#"
            def Cell(self, v) =
                self ? { read(r) = r![v] | Cell[self, v], write(u) = Cell[self, u] }
            in new x Cell[x, 9]
            "#,
        )
        .expect("compiles");
        assert!(p.instr_count() > 0);
        assert!(p.disassemble().contains("Cell"));
        assert!(p.pretty().contains("def Cell"));
    }

    #[test]
    fn surfaces_each_error_stage() {
        assert!(matches!(
            Program::compile("def ("),
            Err(ProgramError::Parse(_))
        ));
        assert!(matches!(
            Program::compile("new x (x![1] | x![true])"),
            Err(ProgramError::Type(_))
        ));
    }

    #[test]
    fn verify_and_lint_facade() {
        let p = Program::compile("new x (x!go[1] | x?{ go(n) = print(n) })").unwrap();
        assert!(p.verify().is_ok());
        assert!(p.findings().is_empty());

        let dead = Program::compile("new x (x!go[1] | print(0))").unwrap();
        assert!(dead.verify().is_ok(), "dead code still verifies");
        let found: Vec<_> = dead
            .findings()
            .iter()
            .map(|f| (f.kind.tag(), f.subject.clone(), f.at.to_string()))
            .collect();
        assert_eq!(
            found,
            [
                ("orphan-message", "x".to_string(), "1:1".to_string()),
                ("orphan-send", "go".to_string(), "1:8".to_string()),
            ]
        );
    }
}
