//! `headstart` — command-line front end for the reproduction.
//!
//! ```text
//! headstart train   --model vgg11 --dataset cifar --epochs 14 --out model.hsck
//! headstart prune   --model model.hsck --dataset cifar --sp 2 --out pruned.hsck
//! headstart info    --model pruned.hsck [--input-size 16]
//! headstart estimate --model pruned.hsck --input-size 16
//! ```
//!
//! All randomness is seeded (`--seed`, default 42), so runs reproduce.

use std::collections::HashMap;
use std::error::Error;
use std::process::ExitCode;

use headstart::data::{cached, DatasetSpec};
use headstart::gpusim::{devices, estimate};
use headstart::nn::accounting::analyze;
use headstart::nn::optim::Sgd;
use headstart::nn::{checkpoint, models, train, Network};
use headstart::runner::{Budget, Method, Prepared};
use headstart::tensor::Rng;

const USAGE: &str = "\
usage: headstart <command> [--flag value]...

commands:
  train      train a model on a synthetic dataset and save a checkpoint
             --model vgg11|vgg16|resnet20|resnet38|lenet|alexnet (default vgg11)
             --dataset cifar|cub (default cifar)
             --width F (default 0.25)   --epochs N (default 14)
             --out PATH (default model.hsck)   --seed N (default 42)
  prune      HeadStart-prune a checkpointed model and save the result
             --model PATH (required)    --dataset cifar|cub (default cifar)
             --sp F (default 2.0)       --episodes N (default 100)
             --finetune N (default 3)   --out PATH (default pruned.hsck)
             --seed N (default 42)
  info       print a checkpoint's architecture, parameters and MACs
             --model PATH (required)    --input-size N (default 16)
  estimate   fps of a checkpointed model on the four simulated platforms
             --model PATH (required)    --input-size N (default 16)
";

fn parse_flags(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let key = args[i]
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --flag, got `{}`", args[i]))?;
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("--{key} needs a value"))?;
        flags.insert(key.to_string(), value.clone());
        i += 2;
    }
    Ok(flags)
}

fn flag<'a>(flags: &'a HashMap<String, String>, key: &str, default: &'a str) -> &'a str {
    flags.get(key).map(String::as_str).unwrap_or(default)
}

fn dataset_spec(name: &str) -> Result<DatasetSpec, String> {
    match name {
        "cifar" => Ok(DatasetSpec::cifar_like()),
        "cub" => Ok(DatasetSpec::cub_like()),
        other => Err(format!("unknown dataset `{other}` (use cifar or cub)")),
    }
}

fn build_model(
    name: &str,
    classes: usize,
    input_size: usize,
    width: f32,
    rng: &mut Rng,
) -> Result<Network, Box<dyn Error>> {
    Ok(match name {
        "vgg11" => models::vgg11(3, classes, input_size, width, rng)?,
        "vgg16" => models::vgg16(3, classes, input_size, width, rng)?,
        "resnet20" => models::resnet_cifar(3, 3, classes, width, rng)?,
        "resnet38" => models::resnet_cifar(6, 3, classes, width, rng)?,
        "lenet" => models::lenet(3, classes, input_size, width, rng)?,
        "alexnet" => models::alexnet(3, classes, input_size, width, rng)?,
        other => return Err(format!("unknown model `{other}`").into()),
    })
}

fn cmd_train(flags: &HashMap<String, String>) -> Result<(), Box<dyn Error>> {
    let seed: u64 = flag(flags, "seed", "42").parse()?;
    let epochs: usize = flag(flags, "epochs", "14").parse()?;
    let width: f32 = flag(flags, "width", "0.25").parse()?;
    let out = flag(flags, "out", "model.hsck");
    let ds = cached(&dataset_spec(flag(flags, "dataset", "cifar"))?)?;
    let mut rng = Rng::seed_from(seed);
    let mut net = build_model(
        flag(flags, "model", "vgg11"),
        ds.num_classes(),
        ds.image_size(),
        width,
        &mut rng,
    )?;
    let mut opt = Sgd::new(0.05).momentum(0.9).weight_decay(5e-4);
    for epoch in 0..epochs {
        let stats = train::train_epoch(
            &mut net,
            &mut opt,
            &ds.train_images,
            &ds.train_labels,
            32,
            &mut rng,
        )?;
        println!(
            "epoch {epoch:3}: loss {:.4} train-acc {:.4}",
            stats.loss, stats.accuracy
        );
    }
    let acc = train::evaluate(&mut net, &ds.test_images, &ds.test_labels, 64)?;
    println!("test accuracy: {:.2}%", acc * 100.0);
    checkpoint::save(&net, out)?;
    println!("saved checkpoint to {out}");
    Ok(())
}

fn cmd_prune(flags: &HashMap<String, String>) -> Result<(), Box<dyn Error>> {
    let model = flags.get("model").ok_or("prune needs --model PATH")?;
    let seed: u64 = flag(flags, "seed", "42").parse()?;
    let sp: f32 = flag(flags, "sp", "2.0").parse()?;
    let episodes: usize = flag(flags, "episodes", "100").parse()?;
    let finetune: usize = flag(flags, "finetune", "3").parse()?;
    let out = flag(flags, "out", "pruned.hsck");
    let ds = cached(&dataset_spec(flag(flags, "dataset", "cifar"))?)?;
    let mut net = checkpoint::load(model)?;
    let original_accuracy = train::evaluate(&mut net, &ds.test_images, &ds.test_labels, 64)?;
    let original_cost = analyze(&net, ds.channels(), ds.image_size())?;
    let prepared = Prepared {
        ds,
        net,
        original_accuracy,
        original_cost,
        budget: Budget {
            finetune_epochs: finetune,
            rl_episodes: episodes,
            rl_eval_images: 128,
            ..Budget::full()
        },
        stages: Vec::new(),
    };
    let run = prepared.run_method(&Method::HeadStartLayers { sp }, seed)?;
    for t in &run.traces {
        println!(
            "conv{:2}: {:3} -> {:3} maps, inception {:.2}%, fine-tuned {:.2}%",
            t.conv_ordinal,
            t.maps_before,
            t.maps_after,
            t.inception_accuracy * 100.0,
            t.finetuned_accuracy * 100.0
        );
    }
    let before = &prepared.original_cost;
    println!(
        "pruned: {:.4}M -> {:.4}M params ({:.1}%), accuracy {:.2}% -> {:.2}%",
        before.params_millions(),
        run.cost.params_millions(),
        100.0 * run.cost.total_params as f64 / before.total_params as f64,
        original_accuracy * 100.0,
        run.final_accuracy * 100.0
    );
    checkpoint::save(&run.net, out)?;
    println!("saved pruned checkpoint to {out}");
    Ok(())
}

fn cmd_info(flags: &HashMap<String, String>) -> Result<(), Box<dyn Error>> {
    let model = flags.get("model").ok_or("info needs --model PATH")?;
    let input_size: usize = flag(flags, "input-size", "16").parse()?;
    let net = checkpoint::load(model)?;
    println!("{model}: {} nodes", net.len());
    print!("{}", headstart::nn::summary::render(&net, 3, input_size)?);
    Ok(())
}

fn cmd_estimate(flags: &HashMap<String, String>) -> Result<(), Box<dyn Error>> {
    let model = flags.get("model").ok_or("estimate needs --model PATH")?;
    let input_size: usize = flag(flags, "input-size", "16").parse()?;
    let net = checkpoint::load(model)?;
    println!("{:<16} {:>12} {:>14}", "DEVICE", "fps", "latency (ms)");
    for device in devices::all() {
        let report = estimate(&device, &net, 3, input_size)?;
        println!(
            "{:<16} {:>12.1} {:>14.3}",
            device.name,
            report.fps(),
            report.total_seconds * 1e3
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprint!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let flags = match parse_flags(&args[1..]) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = match command.as_str() {
        "train" => cmd_train(&flags),
        "prune" => cmd_prune(&flags),
        "info" => cmd_info(&flags),
        "estimate" => cmd_estimate(&flags),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`").into()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
