//! Dataset specifications: the nine named datasets of §5.1 and their
//! generation.

use agatha_align::{Scoring, Task};
use rand::{rngs::StdRng, SeedableRng};

use crate::genome::generate_genome;
use crate::profiles::Tech;
use crate::reads::sample_task;

/// Specification of one synthetic dataset.
#[derive(Debug, Clone)]
pub struct DatasetSpec {
    /// Display name, e.g. `"HiFi HG005"`.
    pub name: String,
    /// Technology category (selects profile and scoring preset).
    pub tech: Tech,
    /// Generation seed (each HG sample uses a distinct one).
    pub seed: u64,
    /// Number of alignment tasks to generate.
    pub reads: usize,
}

/// A generated dataset: tasks plus the category's scoring preset.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Display name.
    pub name: String,
    /// Technology category.
    pub tech: Tech,
    /// Alignment tasks (ids `0..reads`).
    pub tasks: Vec<Task>,
    /// Minimap2-preset scoring for this category.
    pub scoring: Scoring,
}

impl DatasetSpec {
    /// The nine datasets of the paper's evaluation, each with `reads`
    /// tasks: HiFi HG005–007 (ChineseTrio), CLR HG002–004 and ONT
    /// HG002–004 (AshkenazimTrio).
    pub fn nine_paper_datasets(reads: usize) -> Vec<DatasetSpec> {
        let mut specs = Vec::new();
        for (tech, samples, seed0) in [
            (Tech::HiFi, ["HG005", "HG006", "HG007"], 500),
            (Tech::Clr, ["HG002", "HG003", "HG004"], 200),
            (Tech::Ont, ["HG002", "HG003", "HG004"], 800),
        ] {
            for (k, sample) in samples.iter().enumerate() {
                specs.push(DatasetSpec {
                    name: format!("{} {}", tech.name(), sample),
                    tech,
                    seed: seed0 + k as u64,
                    reads,
                });
            }
        }
        specs
    }
}

/// Generate the dataset described by `spec`.
pub fn generate(spec: &DatasetSpec) -> Dataset {
    let genome = generate_genome(400_000, spec.seed.wrapping_mul(0x9E3779B97F4A7C15));
    let profile = spec.tech.profile();
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let tasks: Vec<Task> =
        (0..spec.reads).map(|id| sample_task(id as u32, &genome, &profile, &mut rng)).collect();
    Dataset { name: spec.name.clone(), tech: spec.tech, tasks, scoring: spec.tech.scoring() }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nine_datasets_named_like_paper() {
        let specs = DatasetSpec::nine_paper_datasets(10);
        assert_eq!(specs.len(), 9);
        assert_eq!(specs[0].name, "HiFi HG005");
        assert_eq!(specs[3].name, "CLR HG002");
        assert_eq!(specs[8].name, "ONT HG004");
        let seeds: std::collections::HashSet<u64> = specs.iter().map(|s| s.seed).collect();
        assert_eq!(seeds.len(), 9, "seeds must differ");
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = &DatasetSpec::nine_paper_datasets(12)[0];
        let a = generate(spec);
        let b = generate(spec);
        for (x, y) in a.tasks.iter().zip(&b.tasks) {
            assert_eq!(x.reference, y.reference);
            assert_eq!(x.query, y.query);
        }
    }

    #[test]
    fn task_ids_sequential() {
        let spec = &DatasetSpec::nine_paper_datasets(15)[4];
        let d = generate(spec);
        for (k, t) in d.tasks.iter().enumerate() {
            assert_eq!(t.id as usize, k);
        }
    }

    #[test]
    fn workload_distribution_has_long_tail() {
        // Fig. 3(b): most tasks small, a far-right peak carrying real weight.
        let spec = DatasetSpec { name: "x".into(), tech: Tech::Ont, seed: 99, reads: 400 };
        let d = generate(&spec);
        let mut diags: Vec<u64> = d.tasks.iter().map(|t| t.antidiags() as u64).collect();
        diags.sort_unstable();
        let median = diags[diags.len() / 2];
        let total: u64 = diags.iter().sum();
        let tail_work: u64 = diags.iter().filter(|&&d| d > 3 * median).sum();
        let tail_count = diags.iter().filter(|&&d| d > 3 * median).count();
        assert!(
            tail_count as f64 / diags.len() as f64 > 0.03,
            "tail count fraction {}",
            tail_count as f64 / diags.len() as f64
        );
        assert!(
            tail_work as f64 / total as f64 > 0.25,
            "tail must dominate workload: {}",
            tail_work as f64 / total as f64
        );
    }

    #[test]
    fn termination_mix_is_realistic() {
        // Some tasks complete, a substantial share Z-drops (chimeras +
        // divergence) — the unpredictability §3.1 diagnoses.
        let spec = DatasetSpec { name: "x".into(), tech: Tech::Clr, seed: 123, reads: 120 };
        let d = generate(&spec);
        let mut dropped = 0;
        for t in &d.tasks {
            let r = agatha_align::guided::guided_align(&t.reference, &t.query, &d.scoring);
            if r.stop.z_dropped() {
                dropped += 1;
            }
        }
        let frac = dropped as f64 / d.tasks.len() as f64;
        assert!((0.15..0.85).contains(&frac), "z-drop fraction {frac}");
    }
}
