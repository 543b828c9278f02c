//! Whole-model HeadStart pruning of a VGG on the fine-grained synthetic
//! dataset — the pipeline behind the paper's Table 1, run through
//! `hs-runner`'s per-layer loop and printed as the same layer-by-layer
//! trace (maps / params / FLOPs / inception acc / FT acc).
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example prune_whole_vgg
//! ```

use std::error::Error;

use headstart::runner::{prepare, Budget, DataChoice, Method, RunnerConfig};

fn main() -> Result<(), Box<dyn Error>> {
    // The fine-grained CUB-200 stand-in (classes share genera, so wrong
    // pruning decisions hurt much more than on the CIFAR substitute),
    // pre-trained for 14 epochs, then pruned at sp = 2 with 40 RL
    // episodes and 3 fine-tuning epochs per layer (scaled down from the
    // paper's 40).
    let mut cfg = RunnerConfig::new("prune_whole_vgg");
    cfg.data = DataChoice::CubLike;
    cfg.seed = 7;
    cfg.budget = Budget {
        pretrain_epochs: 14,
        finetune_epochs: 3,
        rl_episodes: 40,
        rl_eval_images: 128,
    };
    let prepared = prepare(&cfg)?;
    let cost = &prepared.original_cost;
    println!(
        "original: acc {:.2}%, {:.3}M params, {:.4}B MACs\n",
        prepared.original_accuracy * 100.0,
        cost.params_millions(),
        cost.flops_billions()
    );

    let run = prepared.run_method(&Method::HeadStartLayers { sp: 2.0 }, 7)?;

    println!(
        "{:<8} {:>6} {:>6} {:>10} {:>10} {:>10} {:>9}",
        "LAYER", "#MAPS", "KEPT", "#PARAM(M)", "#MACS(B)", "ACC(INC)%", "ACC(FT)%"
    );
    for t in &run.traces {
        println!(
            "conv{:<4} {:>6} {:>6} {:>10.3} {:>10.4} {:>10.2} {:>9.2}",
            t.conv_ordinal,
            t.maps_before,
            t.maps_after,
            t.params_after as f64 / 1e6,
            t.flops_after as f64 / 1e9,
            t.inception_accuracy * 100.0,
            t.finetuned_accuracy * 100.0
        );
    }
    println!(
        "\nfinal: acc {:.2}% ({:+.2}% vs original), {:.3}M params, compression {:.1}%",
        run.final_accuracy * 100.0,
        (run.final_accuracy - prepared.original_accuracy) * 100.0,
        run.cost.params_millions(),
        100.0 * run.cost.total_params as f64 / cost.total_params as f64
    );
    Ok(())
}
