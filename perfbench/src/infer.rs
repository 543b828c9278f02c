//! `infer`: inference-mode forward passes of dense and compacted
//! VGG-11 and AlexNet at width 0.5, the forward cases of
//! `bench_kernels`, driven as a closed loop by one calling thread.

use std::collections::BTreeMap;
use std::time::Instant;

use hs_data::{Dataset, DatasetSpec};
use hs_gpusim::{devices, estimate};
use hs_nn::surgery::conv_sites;
use hs_nn::{compact, models, Network, NnError, Node};
use hs_tensor::{Rng, Tensor};

use crate::common::{derive_seed, repeat_setup, timed, RegistryDelta, Report};
use crate::stats::{median, percentile};
use crate::trace;

const BATCH: usize = 32;
const CLASSES: usize = 10;
const SIZE: usize = 32;
const WIDTH: f32 = 0.5;
/// Batch-1 calls per round, after the six batch-32 calls.
const B1_PER_ROUND: usize = 64;
/// Compacted logits may differ from masked-dense ones by this much,
/// relative to the largest logit: the two nets sum the same products in
/// a different order.
const LOGIT_TOL: f32 = 1e-4;
/// Node walks per net in the traced mode.
const WALK_REPS: usize = 10;

/// One net of the workload: a model at a speed-up (1 = dense).
struct Case {
    name: String,
    sp: usize,
    net: Network,
    /// The masked-dense twin a compacted net must agree with.
    masked: Option<Network>,
}

struct State {
    cases: Vec<Case>,
    batch: Tensor,
    singles: Vec<Tensor>,
}

/// Masks every conv site of `net` down to its first `⌊c/sp⌋` maps, as
/// `bench_kernels` does.
pub fn masked(net: &Network, sp: usize) -> Result<Network, NnError> {
    let mut m = net.clone();
    for site in conv_sites(&m) {
        let c = m.conv(site.conv)?.out_channels();
        let keep = (c / sp).max(1);
        let mask: Vec<f32> = (0..c).map(|i| if i < keep { 1.0 } else { 0.0 }).collect();
        m.set_channel_mask(site.mask_node, Some(mask));
    }
    Ok(m)
}

fn setup(data_seed: u64, init_seed: u64) -> Result<State, String> {
    let ds = {
        let _span = trace::begin("data.generate");
        Dataset::generate(
            &DatasetSpec::cifar_like()
                .image_size(SIZE)
                .with_seed(data_seed),
        )
        .map_err(|e| e.to_string())?
    };
    let idx: Vec<usize> = (0..BATCH).collect();
    let batch = ds
        .test_images
        .index_select(0, &idx)
        .map_err(|e| e.to_string())?;
    let singles = (0..BATCH)
        .map(|i| ds.test_images.index_select(0, &[i]))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    let mut rng = Rng::seed_from(init_seed);
    let vgg = models::vgg11(3, CLASSES, SIZE, WIDTH, &mut rng).map_err(|e| e.to_string())?;
    let alex = models::alexnet(3, CLASSES, SIZE, WIDTH, &mut rng).map_err(|e| e.to_string())?;
    let mut cases = Vec::new();
    for (name, net) in [("vgg11", vgg), ("alexnet", alex)] {
        for sp in [2, 4] {
            let m = masked(&net, sp).map_err(|e| e.to_string())?;
            let c = {
                let _span = trace::begin("nn.compact");
                compact::compact(&m, 3, SIZE).map_err(|e| e.to_string())?
            };
            cases.push(Case {
                name: format!("{name}.sp{sp}"),
                sp,
                net: c.net,
                masked: Some(m),
            });
        }
        cases.push(Case {
            name: format!("{name}.dense"),
            sp: 1,
            net,
            masked: None,
        });
    }
    Ok(State {
        cases,
        batch,
        singles,
    })
}

fn same_state(a: &State, b: &State) -> bool {
    a.batch.data() == b.batch.data()
        && a.cases.iter().zip(&b.cases).all(|(x, y)| {
            matches!(
                (hs_nn::checkpoint::to_bytes(&x.net), hs_nn::checkpoint::to_bytes(&y.net)),
                (Ok(p), Ok(q)) if p == q
            )
        })
}

/// The node kinds the per-layer split reports.
const KINDS: [&str; 5] = ["conv", "bn", "linear", "pool", "pointwise"];

fn kind_index(node: &Node) -> Option<usize> {
    match node {
        Node::Conv(_) => Some(0),
        Node::Bn(_) => Some(1),
        Node::Linear(_) => Some(2),
        Node::MaxPool(_) | Node::AvgPool(_) | Node::Gap(_) => Some(3),
        Node::Relu(_) | Node::Dropout(_) | Node::Flatten(_) => Some(4),
        Node::Block(_) => None,
    }
}

/// An inference-mode forward pass made node by node through each
/// layer's public `forward`, adding each call's seconds to its kind in
/// `secs`. Nets with masks or residual blocks are refused: the walk has
/// no public way to run them as `Network::forward` does.
fn walk(net: &mut Network, input: &Tensor, secs: &mut [f64; 5]) -> Result<Tensor, String> {
    let mut x: Option<Tensor> = None;
    for i in 0..net.len() {
        if net.channel_mask(i).is_some() {
            return Err(format!("node {i} is masked"));
        }
        let cur = x.as_ref().unwrap_or(input);
        let node = net.node_mut(i);
        let kind = kind_index(node).ok_or_else(|| format!("node {i} is a residual block"))?;
        let _span = trace::begin(KINDS[kind]);
        let t = Instant::now();
        let out = match node {
            Node::Conv(l) => l.forward(cur, false),
            Node::Bn(l) => l.forward(cur, false),
            Node::Relu(l) => Ok(l.forward(cur, false)),
            Node::Dropout(l) => Ok(l.forward(cur, false)),
            Node::MaxPool(l) => l.forward(cur, false),
            Node::AvgPool(l) => l.forward(cur, false),
            Node::Gap(l) => l.forward(cur, false),
            Node::Flatten(l) => l.forward(cur, false),
            Node::Linear(l) => l.forward(cur, false),
            Node::Block(_) => unreachable!("refused above"),
        }
        .map_err(|e| e.to_string())?;
        secs[kind] += t.elapsed().as_secs_f64();
        x = Some(out);
    }
    Ok(x.unwrap_or_else(|| input.clone()))
}

fn forward(case: &mut Case, x: &Tensor) -> Result<Tensor, String> {
    let _span = trace::begin(&case.name);
    case.net.forward(x, false).map_err(|e| e.to_string())
}

/// Compacted logits agree with the masked-dense net's within
/// [`LOGIT_TOL`], with the same argmax per row.
fn check_compaction(report: &mut Report, case: &mut Case, x: &Tensor) -> Result<(), String> {
    let Some(masked) = case.masked.as_mut() else {
        return Ok(());
    };
    let want = masked.forward(x, false).map_err(|e| e.to_string())?;
    let got = case.net.forward(x, false).map_err(|e| e.to_string())?;
    let scale = want.data().iter().fold(1.0f32, |m, v| m.max(v.abs()));
    let diff = want
        .data()
        .iter()
        .zip(got.data())
        .fold(0.0f32, |m, (a, b)| m.max((a - b).abs()));
    let same_argmax = hs_nn::infer::argmax_rows(&want).ok() == hs_nn::infer::argmax_rows(&got).ok();
    report.check(diff <= LOGIT_TOL * scale && same_argmax, || {
        format!(
            "{}: compacted logits differ from masked by {diff} (limit {}), argmax equal: {same_argmax}",
            case.name,
            LOGIT_TOL * scale
        )
    });
    Ok(())
}

pub fn run(seed: u64, seconds: f64, traced: bool, report: &mut Report) -> Result<(), String> {
    let (data_seed, init_seed) = (derive_seed(seed, 1), derive_seed(seed, 2));
    let (mut st, setup_s) = repeat_setup(report, || setup(data_seed, init_seed), same_state)?;
    report.e2e.insert("setup_s", setup_s);

    // Output checks and the reference outputs every timed call must
    // reproduce bit for bit.
    let mut reference = Vec::new();
    for case in &mut st.cases {
        check_compaction(report, case, &st.batch)?;
        reference.push(forward(case, &st.batch)?);
    }
    let b1_case = st
        .cases
        .iter()
        .position(|c| c.name == "vgg11.sp2")
        .expect("vgg11.sp2 is built in set-up");
    let b1_reference: Vec<Tensor> = st
        .singles
        .iter()
        .map(|x| forward(&mut st.cases[b1_case], x))
        .collect::<Result<_, _>>()?;

    let mut b32_secs: Vec<Vec<f64>> = vec![Vec::new(); st.cases.len()];
    let mut b1_secs = Vec::new();
    let delta = RegistryDelta::start();
    let start = Instant::now();
    let mut rounds = 0usize;
    while rounds == 0 || start.elapsed().as_secs_f64() < seconds {
        rounds += 1;
        trace::set_run(rounds as u64);
        let _span = trace::begin("infer.round");
        for (k, case) in st.cases.iter_mut().enumerate() {
            let (y, s) = timed(|| forward(case, &st.batch));
            b32_secs[k].push(s);
            tally(report, &y?, &reference[k], &case.name);
        }
        for i in 0..B1_PER_ROUND {
            let j = (rounds * B1_PER_ROUND + i) % st.singles.len();
            let (y, s) = timed(|| forward(&mut st.cases[b1_case], &st.singles[j]));
            b1_secs.push(s);
            tally(report, &y?, &b1_reference[j], "vgg11.sp2 batch 1");
        }
    }
    trace::set_run(0);

    // Batch-32 images per second over the dense or the compacted nets,
    // from each net's median call.
    let img_per_s = |dense: bool| {
        let picked: Vec<usize> = (0..st.cases.len())
            .filter(|&k| (st.cases[k].sp == 1) == dense)
            .collect();
        let secs: f64 = picked.iter().map(|&k| median(&b32_secs[k])).sum();
        (picked.len() * BATCH) as f64 / secs
    };
    let b1_p50 = median(&b1_secs) * 1e3;
    // The compacted nets carry the paper's fps claim; the dense nets'
    // big multi-threaded GEMMs spread more from run to run on a shared
    // 2-vCPU VM, so they are reported but not gated.
    report.e2e.insert("throughput_per_s", img_per_s(false));
    report.e2e.insert("op_p50_ms", b1_p50);
    report.named("infer_compact_img_per_s", img_per_s(false), "img/s");
    report.named("infer_dense_img_per_s", img_per_s(true), "img/s");
    report.named("infer_b1_p50_ms", b1_p50, "ms");
    match percentile(&b1_secs, 99.0) {
        Some(p99) => report.named("infer_b1_p99_ms", p99 * 1e3, "ms"),
        None => report.notes.push(format!(
            "infer_b1_p99_ms not reported: {} samples, 1000 needed",
            b1_secs.len()
        )),
    }
    report.named("infer_b1_samples", b1_secs.len() as f64, "count");

    if traced {
        delta.tensor_metrics(report, rounds);
        layer_split(report, &mut st, b1_case)?;
    }
    Ok(())
}

/// Counts one forward call as an op; it fails unless its output is
/// bit-identical to the reference pass.
fn tally(report: &mut Report, y: &Tensor, want: &Tensor, what: &str) {
    report.attempted += 1;
    let same = y.data().len() == want.data().len()
        && y.data()
            .iter()
            .zip(want.data())
            .all(|(a, b)| a.to_bits() == b.to_bits());
    if !report.check(same, || {
        format!("{what}: output differs from the reference pass")
    }) {
        report.failed += 1;
    }
}

/// The traced per-kind split: µs per image in each node kind, measured
/// by node walks, and the glue `Network::forward` adds around them. The
/// roofline model's prediction for the same nets is printed beside it.
fn layer_split(report: &mut Report, st: &mut State, b1_case: usize) -> Result<(), String> {
    let device = devices::xeon_e2620();
    let groups: [(&str, Vec<usize>, bool); 3] = [
        (
            "dense.b32",
            (0..st.cases.len())
                .filter(|&k| st.cases[k].sp == 1)
                .collect(),
            true,
        ),
        (
            "compact.b32",
            (0..st.cases.len())
                .filter(|&k| st.cases[k].sp > 1)
                .collect(),
            true,
        ),
        ("compact.b1", vec![b1_case], false),
    ];
    for (group, members, batched) in &groups {
        let mut kind_secs = [0.0f64; 5];
        let mut forward_secs = 0.0;
        let mut images = 0usize;
        let mut predicted: BTreeMap<String, f64> = BTreeMap::new();
        for &k in members {
            let case = &mut st.cases[k];
            let x = if *batched { &st.batch } else { &st.singles[0] };
            let n = x.shape().dim(0);
            for _ in 0..WALK_REPS {
                let walked = {
                    let _span = trace::begin("nn.walk");
                    walk(&mut case.net, x, &mut kind_secs)?
                };
                let (direct, s) = timed(|| forward(case, x));
                forward_secs += s;
                let direct = direct?;
                report.check(walked.data() == direct.data(), || {
                    format!("{}: node walk differs from Network::forward", case.name)
                });
                images += n;
            }
            let est = estimate(&device, &case.net, 3, SIZE).map_err(|e| e.to_string())?;
            for l in est.layers {
                *predicted.entry(l.kind).or_default() += l.seconds * 1e6;
            }
        }
        let per_img = |s: f64| s * 1e6 / images as f64;
        for (i, kind) in KINDS.iter().enumerate() {
            report.layer(&format!("nn.{group}.{kind}_us"), per_img(kind_secs[i]));
        }
        let walked: f64 = kind_secs.iter().sum();
        report.layer(
            &format!("nn.{group}.glue_us"),
            per_img(forward_secs - walked),
        );
        let measured: Vec<String> = KINDS
            .iter()
            .zip(kind_secs)
            .map(|(k, s)| format!("{k} {:.1}", per_img(s)))
            .collect();
        let roofline: Vec<String> = predicted
            .iter()
            .map(|(k, us)| format!("{k} {:.1}", us / members.len() as f64))
            .collect();
        report.notes.push(format!(
            "layer table {group}: measured us/image [{}] | hs_gpusim {} us/image [{}]",
            measured.join(", "),
            device.name,
            roofline.join(", ")
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hs_tensor::Shape;

    #[test]
    fn node_walk_equals_network_forward() {
        let mut rng = Rng::seed_from(9);
        let x = Tensor::randn(Shape::d4(3, 3, 32, 32), &mut rng);
        for net in [
            models::vgg11(3, 10, 32, 0.25, &mut rng).unwrap(),
            models::alexnet(3, 10, 32, 0.25, &mut rng).unwrap(),
        ] {
            let compacted = compact::compact(&masked(&net, 2).unwrap(), 3, 32)
                .unwrap()
                .net;
            for mut n in [net, compacted.clone()] {
                let want = n.forward(&x, false).unwrap();
                let mut secs = [0.0; 5];
                let got = walk(&mut n, &x, &mut secs).unwrap();
                assert_eq!(got.shape(), want.shape());
                assert!(got
                    .data()
                    .iter()
                    .zip(want.data())
                    .all(|(a, b)| a.to_bits() == b.to_bits()));
                assert!(secs.iter().all(|&s| s > 0.0));
            }
            // A net with masks is refused rather than walked unmasked.
            let mut with_masks = masked(&compacted, 1).unwrap();
            assert!(walk(&mut with_masks, &x, &mut [0.0; 5]).is_err());
        }
    }
}
