//! The complete mapping pipeline on FASTA files: reference genome → k-mer
//! index → seeding & chaining (the paper's "pre-computing steps") →
//! guided extension with AGAThA → scores and CIGARs.
//!
//! ```text
//! cargo run --release --example full_pipeline
//! ```

use agatha_suite::align::traceback::guided_align_traced;
use agatha_suite::align::PackedSeq;
use agatha_suite::core::{AgathaConfig, Pipeline};
use agatha_suite::datasets::chain::{precompute_task, ChainParams, KmerIndex};
use agatha_suite::datasets::genome::generate_genome;
use agatha_suite::datasets::profiles::Tech;
use agatha_suite::datasets::reads::apply_errors;
use agatha_suite::io::{read_fasta, write_fasta, FastaRecord};

use rand::{rngs::StdRng, Rng, SeedableRng};

fn main() {
    // 1. A reference genome, written to and read back from FASTA.
    let genome = generate_genome(80_000, 77);
    let dir = std::env::temp_dir().join(format!("agatha_full_pipeline_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let ref_path = dir.join("reference.fasta");
    write_fasta(
        &ref_path,
        &[FastaRecord { name: "synthetic_chr".into(), seq: PackedSeq::from_codes(&genome) }],
    )
    .unwrap();
    let genome_codes = read_fasta(&ref_path).unwrap().remove(0).seq.to_codes();
    println!("reference: {} bases ({})", genome_codes.len(), ref_path.display());

    // 2. Reads sampled with a CLR error profile.
    let profile = {
        let mut p = Tech::Clr.profile();
        p.junk_fraction = 0.0;
        p.chimera_fraction = 0.0;
        p.divergent_fraction = 0.0;
        p
    };
    let mut rng = StdRng::seed_from_u64(13);
    let reads: Vec<Vec<u8>> = (0..24)
        .map(|_| {
            let len = rng.gen_range(400..2000);
            let start = rng.gen_range(0..genome_codes.len() - len);
            apply_errors(&genome_codes[start..start + len], &profile, &mut rng)
        })
        .collect();

    // 3. Pre-computation: index, seed, chain.
    let index = KmerIndex::build(&genome_codes, 15, 8);
    println!("index: {} distinct 15-mers", index.distinct_kmers());
    let params = ChainParams::default();
    let tasks: Vec<_> = reads
        .iter()
        .enumerate()
        .filter_map(|(i, read)| precompute_task(i as u32, &genome_codes, &index, read, 64, &params))
        .collect();
    println!("chaining located {}/{} reads", tasks.len(), reads.len());

    // 4. Guided extension with AGAThA.
    let scoring = Tech::Clr.scoring();
    let report = Pipeline::new(scoring, AgathaConfig::agatha()).align_batch(&tasks);
    println!(
        "aligned {} tasks in {:.3} simulated ms ({} z-dropped)",
        tasks.len(),
        report.elapsed_ms,
        report.stats.zdropped_tasks
    );

    // 5. Traceback for the first few accepted extensions.
    for (task, result) in tasks.iter().zip(&report.results).take(3) {
        let traced = guided_align_traced(&task.reference, &task.query, &scoring);
        assert_eq!(traced.result.score, result.score, "traceback must agree with the kernel");
        println!(
            "  read {:>2}: score {:>5}  CIGAR {}",
            task.id,
            result.score,
            abbreviate(&traced.cigar())
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

fn abbreviate(cigar: &str) -> String {
    if cigar.len() <= 60 {
        cigar.to_string()
    } else {
        format!(
            "{}…{} ({} runs)",
            &cigar[..40],
            &cigar[cigar.len() - 12..],
            cigar.matches(|c: char| c.is_ascii_alphabetic() || c == '=').count()
        )
    }
}
