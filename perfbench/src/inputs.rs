//! Seeded input generation shared by the workloads.
//!
//! Everything a workload feeds the program — program sizes, lane
//! registers, request orders — derives from the workload seed through
//! [`Rng`]; the program only ever receives the generated inputs.

use ultrascalar_isa::{asm, Program};

/// SplitMix64: a tiny deterministic generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// `base` jittered by up to ±`pct` percent (rounded down, so a small
    /// base stays fixed), so sizes vary with the seed while the total
    /// work stays steady.
    pub fn jitter(&mut self, base: u32, pct: u32) -> u32 {
        let span = base * pct / 100;
        base - span + self.below(u64::from(2 * span + 1)) as u32
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
    }
}

/// Render a program as assembly text the assembler reads back into an
/// identical program: `.word` lines for the initial memory image,
/// `.reg` lines for non-zero initial registers, then one instruction
/// per line with numeric branch targets.
pub fn render(p: &Program) -> String {
    let mut s = String::new();
    for chunk in p.init_mem.chunks(16) {
        s.push_str(".word ");
        let words: Vec<String> = chunk.iter().map(|&w| (w as i32).to_string()).collect();
        s.push_str(&words.join(", "));
        s.push('\n');
    }
    for (r, &v) in p.init_regs.iter().enumerate() {
        if v != 0 {
            s.push_str(&format!(".reg r{r}, {}\n", v as i32));
        }
    }
    for i in &p.instrs {
        s.push_str(&asm::disassemble(i));
        s.push('\n');
    }
    s
}

/// Assemble rendered text and check it reproduces `p` exactly.
pub fn assemble_rendered(text: &str, p: &Program) -> Result<Program, String> {
    let q = asm::assemble(text, p.num_regs).map_err(|e| e.to_string())?;
    if q != *p {
        return Err("rendered program does not assemble back to itself".into());
    }
    Ok(q)
}
