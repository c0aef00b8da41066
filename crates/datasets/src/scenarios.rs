//! Declarative scenario registry (ROADMAP "scenario diversity").
//!
//! A *scenario* binds a workload name to everything the suite needs to run
//! it end to end: a score model (through its [`Scoring`] constructor), a
//! deterministic task generator, the baseline set it is benchmarked
//! against, and the fill-tier gate expectation its score bounds imply. One
//! entry in the [`scenario!`] invocation below surfaces the workload
//! simultaneously in the CLI (`--scenario` on `align`/`demo`/`serve`, the
//! `agatha scenarios` listing), the in-process plan matrix
//! (`tests/plan_matrix.rs`) and the CI scenario matrix —
//! none of those sites enumerate names themselves; they all iterate
//! [`ALL`]. This is the ssufid `wordpress_plugin!` idiom applied to
//! alignment workloads: declare once, appear everywhere.

use agatha_align::block::BlockCtx;
use agatha_align::{PackedSeq, Scoring, Task, BLOCK, BLOSUM62, MAX_BLOCK, MAX_STRIP};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::genome::generate_genome;
use crate::profiles::Tech;
use crate::spec::{generate, DatasetSpec};

/// What the scenario's score-model bounds imply for the overflow gates: a
/// representative task shape and whether the i16 wavefront's exactness gate
/// admits it. Registered per scenario so tests and CI smoke checks can
/// assert the gate derivation instead of assuming DNA constants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GateExpectation {
    /// Representative `(reference, query)` lengths for this workload.
    pub typical_dims: (usize, usize),
    /// Whether `BlockCtx::i16_exact` holds for a task of those dimensions
    /// under this scenario's scoring, at every block geometry (the gate
    /// bounds the score spread inside one block, so the dimensions only
    /// enter through the i32 reach it includes).
    pub i16_exact: bool,
}

/// One registered workload: name → (score model, dataset generator,
/// baseline set, gate expectations).
#[derive(Clone, Copy)]
pub struct Scenario {
    /// Registry key (`--scenario` value).
    pub name: &'static str,
    /// One-line description for `agatha scenarios` and `--scenario help`.
    pub summary: &'static str,
    /// The scenario's scoring preset (carrying its score model — fixed DNA
    /// or substitution matrix — whose declared bounds drive the gates).
    pub scoring: fn() -> Scoring,
    /// Deterministic task generator: `(seed, reads) → tasks`.
    pub tasks: fn(u64, usize) -> Vec<Task>,
    /// Baseline engines this workload is benchmarked against.
    pub baselines: &'static [&'static str],
    /// Declared gate behaviour, asserted by [`Scenario::check_gate`].
    pub gate: GateExpectation,
}

impl std::fmt::Debug for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scenario")
            .field("name", &self.name)
            .field("summary", &self.summary)
            .field("baselines", &self.baselines)
            .field("gate", &self.gate)
            .finish()
    }
}

impl Scenario {
    /// Whether the registered gate expectation matches what the block
    /// layer actually derives from this scenario's score-model bounds.
    pub fn check_gate(&self) -> bool {
        let sc = (self.scoring)();
        let (n, m) = self.gate.typical_dims;
        [BLOCK, MAX_BLOCK, MAX_STRIP]
            .iter()
            .all(|&b| BlockCtx::with_block_dim(n, m, &sc, b).i16_exact == self.gate.i16_exact)
    }
}

/// Look up a scenario by registry key.
pub fn find(name: &str) -> Option<&'static Scenario> {
    ALL.iter().copied().find(|s| s.name == name)
}

/// Declare the scenario registry. Each `module / STATIC { ... }` block
/// becomes a module exporting one public static [`Scenario`] plus a row in
/// [`ALL`]; adding a workload is one new block in the single invocation
/// below — every consumer (CLI, plan-matrix test, CI) iterates [`ALL`] and
/// needs no edit.
#[macro_export]
macro_rules! scenario {
    ($( $mod_name:ident / $static_name:ident {
        name: $name:literal,
        summary: $summary:literal,
        scoring: $scoring:expr,
        tasks: $tasks:expr,
        baselines: [$($baseline:literal),* $(,)?],
        typical_dims: ($n:expr, $m:expr),
        i16_exact: $i16:expr $(,)?
    } )+) => {
        $(
            pub mod $mod_name {
                use super::*;
                #[doc = $summary]
                pub static $static_name: Scenario = Scenario {
                    name: $name,
                    summary: $summary,
                    scoring: $scoring,
                    tasks: $tasks,
                    baselines: &[$($baseline),*],
                    gate: GateExpectation { typical_dims: ($n, $m), i16_exact: $i16 },
                };
            }
            pub use $mod_name::$static_name;
        )+

        /// Every registered scenario, in declaration order.
        pub static ALL: &[&Scenario] = &[$( &$mod_name::$static_name ),+];
    };
}

scenario! {
    dna_short / DNA_SHORT {
        name: "dna-short",
        summary: "BWA-style short DNA reads (180-300 bp, ~1% error) against local reference windows",
        scoring: Scoring::preset_bwa,
        tasks: short_read_tasks,
        baselines: ["gasal2", "saloba"],
        typical_dims: (360, 300),
        i16_exact: true,
    }
    dna_long / DNA_LONG {
        name: "dna-long",
        summary: "PacBio CLR long reads under the minimap2 CLR preset (heavy-tailed lengths, chimeras)",
        scoring: clr_scoring,
        tasks: clr_tasks,
        baselines: ["gasal2", "saloba", "manymap", "logan"],
        typical_dims: (20_000, 18_000),
        i16_exact: true,
    }
    protein_blosum62 / PROTEIN_BLOSUM62 {
        name: "protein-blosum62",
        summary: "Protein alignment under the BLOSUM62 substitution matrix (bounds +11/-4, 8-bit packing)",
        scoring: Scoring::preset_blosum62,
        tasks: protein_tasks,
        baselines: ["cpu"],
        typical_dims: (300, 250),
        i16_exact: true,
    }
    ont_accuracy / ONT_ACCURACY {
        name: "ont-accuracy",
        summary: "Nanopore long reads under the minimap2 ONT preset (high error, divergence-driven z-drops)",
        scoring: ont_scoring,
        tasks: ont_tasks,
        baselines: ["gasal2", "saloba", "manymap", "logan"],
        typical_dims: (25_000, 22_000),
        i16_exact: true,
    }
}

fn clr_scoring() -> Scoring {
    Tech::Clr.scoring()
}

fn ont_scoring() -> Scoring {
    Tech::Ont.scoring()
}

/// `dna-short`: fixed-seed short reads sampled from a synthetic genome
/// with ~1% substitutions and small indel margins — the regime whose
/// scores provably fit the i16 tier.
fn short_read_tasks(seed: u64, reads: usize) -> Vec<Task> {
    let genome = generate_genome(200_000, seed.wrapping_mul(0x9E3779B97F4A7C15));
    let mut rng = StdRng::seed_from_u64(seed);
    (0..reads)
        .map(|id| {
            let len = rng.gen_range(180..300);
            let start = rng.gen_range(0..genome.len() - len - 64);
            let mut read: Vec<u8> = genome[start..start + len].to_vec();
            for c in &mut read {
                if rng.gen_bool(0.01) {
                    *c = rng.gen_range(0..4);
                }
            }
            let margin = 32;
            let r0 = start.saturating_sub(margin);
            let r1 = (start + len + margin).min(genome.len());
            Task {
                id: id as u32,
                reference: PackedSeq::from_codes(&genome[r0..r1]),
                query: PackedSeq::from_codes(&read),
            }
        })
        .collect()
}

/// `dna-long`: the paper's CLR category via [`DatasetSpec`].
fn clr_tasks(seed: u64, reads: usize) -> Vec<Task> {
    generate(&DatasetSpec { name: "dna-long".to_string(), tech: Tech::Clr, seed, reads }).tasks
}

/// `ont-accuracy`: the paper's ONT category via [`DatasetSpec`].
fn ont_tasks(seed: u64, reads: usize) -> Vec<Task> {
    generate(&DatasetSpec { name: "ont-accuracy".to_string(), tech: Tech::Ont, seed, reads }).tasks
}

/// `protein-blosum62`: random residue references with queries mutated from
/// a window of each (substitutions plus light indels), packed at 8 bits
/// under the BLOSUM62 alphabet.
fn protein_tasks(seed: u64, reads: usize) -> Vec<Task> {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0xB105_F00D) | 1);
    (0..reads)
        .map(|id| {
            let rlen = rng.gen_range(150..400);
            // Real residues only (X is reserved for ambiguity/padding).
            let reference: Vec<u8> = (0..rlen).map(|_| rng.gen_range(0..20u8)).collect();
            let qlen = rng.gen_range(100..=rlen.min(350));
            let start = rng.gen_range(0..=rlen - qlen);
            let mut query = Vec::with_capacity(qlen + 8);
            for &c in &reference[start..start + qlen] {
                let roll = rng.gen_range(0..100);
                if roll < 6 {
                    query.push(rng.gen_range(0..20u8)); // substitution
                } else if roll < 7 {
                    query.push(c);
                    query.push(rng.gen_range(0..20u8)); // insertion
                } else if roll < 8 {
                    // deletion
                } else {
                    query.push(c);
                }
            }
            Task {
                id: id as u32,
                reference: PackedSeq::from_protein_codes(&reference, &BLOSUM62),
                query: PackedSeq::from_protein_codes(&query, &BLOSUM62),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use agatha_align::guided::guided_align;
    use agatha_align::ScoreModel;

    #[test]
    fn registry_names_are_unique_and_findable() {
        let mut names: Vec<&str> = ALL.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ALL.len(), "duplicate scenario names");
        for s in ALL {
            assert!(std::ptr::eq(find(s.name).unwrap(), *s));
            assert!(!s.summary.is_empty());
            assert!(!s.baselines.is_empty());
        }
        assert!(find("no-such-scenario").is_none());
    }

    #[test]
    fn registered_gates_match_derived_gates() {
        for s in ALL {
            assert!(
                s.check_gate(),
                "{}: registered i16_exact diverges from the derived gate",
                s.name
            );
        }
    }

    #[test]
    fn every_scenario_keeps_the_i16_gate_at_32_lanes() {
        // The 32-lane strip serves a scenario only where its gate holds at
        // 32: print how much of the i16 offset range one window uses, and
        // hold every registered workload to it.
        use agatha_align::block::{BlockCtx, I16_OFFSET_BOUND};
        use agatha_align::simd::WavefrontBackend::Avx512;
        for s in ALL {
            let sc = (s.scoring)();
            let (n, m) = s.gate.typical_dims;
            let sums = [BLOCK, MAX_BLOCK, MAX_STRIP].map(|b| BlockCtx::i16_window_sum(&sc, b));
            println!(
                "{}: i16 window sum b8={} b16={} b32={} of {I16_OFFSET_BOUND} (b32 margin {})",
                s.name,
                sums[0],
                sums[1],
                sums[2],
                I16_OFFSET_BOUND - sums[2]
            );
            assert!(sums[2] < I16_OFFSET_BOUND, "{}: the gate fails at 32", s.name);
            assert!(BlockCtx::with_block_dim(n, m, &sc, MAX_STRIP).i16_exact, "{}", s.name);
            assert_eq!(BlockCtx::geometry_for(n, m, &sc, Avx512), MAX_STRIP, "{}", s.name);
        }
    }

    #[test]
    fn every_scenario_generates_and_aligns() {
        for s in ALL {
            let sc = (s.scoring)();
            sc.validate().unwrap_or_else(|e| panic!("{}: invalid scoring: {e}", s.name));
            let tasks = (s.tasks)(42, 6);
            assert_eq!(tasks.len(), 6, "{}", s.name);
            let again = (s.tasks)(42, 6);
            for (a, b) in tasks.iter().zip(&again) {
                assert_eq!(a.reference, b.reference, "{}: generator must be deterministic", s.name);
                assert_eq!(a.query, b.query, "{}", s.name);
            }
            for t in &tasks {
                assert!(t.ref_len() > 0 && t.query_len() > 0, "{}", s.name);
                // The guided reference must run every scenario's model.
                let r = guided_align(&t.reference, &t.query, &sc);
                assert!(r.score >= 0 || r.stop.z_dropped(), "{}: {r:?}", s.name);
            }
        }
    }

    #[test]
    fn protein_scenario_uses_the_matrix_model() {
        let s = find("protein-blosum62").unwrap();
        let sc = (s.scoring)();
        assert!(matches!(sc.model, ScoreModel::Matrix(_)));
        assert_eq!(sc.max_score(), 11);
        assert_eq!(sc.min_score(), -4);
        let tasks = (s.tasks)(7, 3);
        for t in &tasks {
            assert_eq!(t.reference.bits(), 8, "protein packs at 8 bits");
            assert_eq!(t.query.pad(), BLOSUM62.pad_code());
        }
    }
}
