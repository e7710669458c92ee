//! Assembler fuzz: damaged sources must give a typed error, never a
//! panic.
//!
//! The corpus is every sample in `asm/` plus every named kernel (the
//! workload suite and the benchmark kernels), rendered back to source
//! text. Each source is assembled at every prefix truncation, and the
//! property test applies random byte edits (replace, insert, delete),
//! biased towards the characters the grammar cares about. `usim serve`
//! assembles whatever a client sends, so a panic here is a server
//! crash.

use std::fmt::Write as _;
use std::sync::OnceLock;

use proptest::prelude::*;
use ultrascalar_bench::kernels;
use ultrascalar_suite::isa::asm::MAX_DATA_WORDS;
use ultrascalar_suite::isa::{assemble, disassemble, workload, Program};

/// Render a program as assembler source: its data image, its nonzero
/// initial registers, then one instruction per line (branch targets as
/// absolute indices).
fn render(p: &Program) -> String {
    let mut s = String::new();
    if !p.init_mem.is_empty() {
        let words: Vec<String> = p.init_mem.iter().map(|&w| (w as i32).to_string()).collect();
        writeln!(s, ".word {}", words.join(", ")).unwrap();
    }
    for (r, &v) in p.init_regs.iter().enumerate() {
        if v != 0 {
            writeln!(s, ".reg r{r}, {}", v as i32).unwrap();
        }
    }
    for i in &p.instrs {
        writeln!(s, "{}", disassemble(i)).unwrap();
    }
    s
}

/// Every source in the corpus, with the register-file size to
/// assemble it for; built once per test binary.
fn corpus() -> &'static [(String, usize)] {
    static CORPUS: OnceLock<Vec<(String, usize)>> = OnceLock::new();
    CORPUS.get_or_init(build_corpus)
}

fn build_corpus() -> Vec<(String, usize)> {
    let dir = format!("{}/asm", env!("CARGO_MANIFEST_DIR"));
    let mut out: Vec<(String, usize)> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("read {dir}: {e}"))
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "asm"))
        .map(|p| (std::fs::read_to_string(&p).expect("read sample"), 32))
        .collect();
    assert!(out.len() >= 3, "the asm/ samples are part of the corpus");
    let mut programs: Vec<Program> = workload::standard_suite(1)
        .into_iter()
        .map(|(_, p)| p)
        .collect();
    programs.extend([
        kernels::div_chain(4),
        kernels::div_chain_seeded(4),
        kernels::wide_div_chain(4),
        kernels::forward_fan(4),
        kernels::forward_fan_seeded(4),
        kernels::branch_gauntlet(4),
        kernels::branch_gauntlet_seeded(4),
        kernels::spec_storm(4),
        kernels::spec_storm_seeded(4),
    ]);
    for p in programs {
        let src = render(&p);
        // The rendering is faithful, so the fuzz starts from sources
        // that assemble to exactly these kernels.
        assert_eq!(assemble(&src, p.num_regs).as_ref(), Ok(&p), "{src}");
        out.push((src, p.num_regs));
    }
    out
}

/// Assemble `src`; a successful result must respect the image cap.
fn assemble_checked(src: &str, num_regs: usize) {
    if let Ok(p) = assemble(src, num_regs) {
        assert!(p.init_mem.len() <= MAX_DATA_WORDS);
    }
}

#[test]
fn every_prefix_truncation_assembles_or_errs() {
    for (src, num_regs) in corpus() {
        for (cut, _) in src.char_indices() {
            assemble_checked(&src[..cut], *num_regs);
        }
        assemble_checked(src, *num_regs);
    }
}

/// Bytes the grammar gives meaning to; half of all edits use one.
const SYNTAX: &[u8] = b"0123456789-+x,:;#()rR. \n\t.orgwordreg";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn random_byte_edits_assemble_or_err(
        pick in any::<usize>(),
        edits in proptest::collection::vec((any::<usize>(), any::<u8>(), 0u8..3), 1..8),
    ) {
        let corpus = corpus();
        let (src, num_regs) = &corpus[pick % corpus.len()];
        let mut bytes = src.clone().into_bytes();
        for (at, raw, kind) in edits {
            let b = if raw % 2 == 0 {
                SYNTAX[usize::from(raw / 2) % SYNTAX.len()]
            } else {
                raw
            };
            let at = at % (bytes.len() + 1);
            match kind {
                0 if at < bytes.len() => bytes[at] = b,
                2 if at < bytes.len() => {
                    bytes.remove(at);
                }
                _ => bytes.insert(at, b),
            }
        }
        assemble_checked(&String::from_utf8_lossy(&bytes), *num_regs);
    }
}
