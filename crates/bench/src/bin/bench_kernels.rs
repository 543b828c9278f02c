//! Kernel microbenchmarks for the persistent-pool + blocked-GEMM work:
//! times the packed/blocked GEMM against a faithful reimplementation of
//! the seed's naive `i-k-j` kernel (per-call thread spawning, 8-thread
//! cap), plus conv forward/backward and a full train step, and writes
//! the numbers to `BENCH_kernels.json` at the repository root.
//!
//! ```text
//! cargo run --release -p hs-bench --bin bench_kernels
//! ```

use std::time::Instant;

use hs_gpusim::{devices, estimate};
use hs_nn::layer::{Conv2d, GlobalAvgPool, Linear, MaxPool2d, ReLU};
use hs_nn::loss::softmax_cross_entropy;
use hs_nn::optim::{Optimizer, Sgd};
use hs_nn::surgery::conv_sites;
use hs_nn::{compact, models, Network, Node};
use hs_telemetry::io::write_json;
use hs_telemetry::metrics::MetricSnapshot;
use hs_telemetry::schema::Json;
use hs_tensor::{gemm_ex, pool, Rng, Shape, Tensor};

/// The seed's GEMM: naive `i-k-j` row bands, threads spawned per call
/// (capped at 8), zero-skipping inner loop. Kept verbatim in spirit so
/// the benchmark compares against exactly what the pool replaced.
fn seed_gemm(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    fn band(a: &[f32], b: &[f32], out: &mut [f32], rows: usize, k: usize, n: usize) {
        for i in 0..rows {
            let a_row = &a[i * k..(i + 1) * k];
            let out_row = &mut out[i * n..(i + 1) * n];
            for (p, &a_ip) in a_row.iter().enumerate() {
                if a_ip == 0.0 {
                    continue;
                }
                let b_row = &b[p * n..(p + 1) * n];
                for (o, &b_pj) in out_row.iter_mut().zip(b_row.iter()) {
                    *o += a_ip * b_pj;
                }
            }
        }
    }
    let mut out = vec![0.0f32; m * n];
    let threads = std::thread::available_parallelism()
        .map(|t| t.get())
        .unwrap_or(1)
        .min(8);
    if m * k * n < (1 << 18) || threads < 2 || m < 2 {
        band(a, b, &mut out, m, k, n);
        return out;
    }
    let rows_per = m.div_ceil(threads);
    std::thread::scope(|scope| {
        for (band_idx, out_chunk) in out.chunks_mut(rows_per * n).enumerate() {
            let row0 = band_idx * rows_per;
            let rows = out_chunk.len() / n;
            let a_chunk = &a[row0 * k..(row0 + rows) * k];
            scope.spawn(move || band(a_chunk, b, out_chunk, rows, k, n));
        }
    });
    out
}

/// Best-of-`reps` wall time of `f`, in seconds.
fn best_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

struct GemmRow {
    size: usize,
    seed_secs: f64,
    new_secs: f64,
}

fn bench_gemm(size: usize, reps: usize, rng: &mut Rng) -> GemmRow {
    let a = Tensor::randn(Shape::d2(size, size), rng);
    let b = Tensor::randn(Shape::d2(size, size), rng);
    let mut out = vec![0.0f32; size * size];
    // Warm both paths (page in buffers, populate the scratch arena).
    let _ = seed_gemm(a.data(), b.data(), size, size, size);
    gemm_ex(
        &mut out,
        a.data(),
        b.data(),
        size,
        size,
        size,
        false,
        false,
        false,
    );
    let seed_secs = best_secs(reps, || {
        std::hint::black_box(seed_gemm(a.data(), b.data(), size, size, size));
    });
    let new_secs = best_secs(reps, || {
        gemm_ex(
            &mut out,
            a.data(),
            b.data(),
            size,
            size,
            size,
            false,
            false,
            false,
        );
        std::hint::black_box(out[0]);
    });
    GemmRow {
        size,
        seed_secs,
        new_secs,
    }
}

fn gflops(size: usize, secs: f64) -> f64 {
    2.0 * (size as f64).powi(3) / secs / 1e9
}

/// One dense-vs-masked-vs-compacted forward-pass measurement: the same
/// pruning decision executed logically (0/1 channel masks, full-shape
/// kernels) and physically (compacted shapes), plus the roofline
/// model's predicted speedup for the shape change.
struct ForwardRow {
    model: &'static str,
    sp: usize,
    dense_secs: f64,
    masked_secs: f64,
    compact_secs: f64,
    /// Executed-MAC ratio dense/compacted (upper bound on the speedup).
    flop_speedup: f64,
    /// Roofline-predicted dense/compacted latency ratio (CPU device).
    predicted_speedup: f64,
}

impl ForwardRow {
    fn measured_speedup(&self) -> f64 {
        self.dense_secs / self.compact_secs
    }

    /// Relative error of the roofline prediction vs the measurement.
    fn prediction_error_pct(&self) -> f64 {
        100.0 * (self.predicted_speedup - self.measured_speedup()).abs() / self.measured_speedup()
    }
}

/// Benchmarks one model at one target speedup: masks every conv site
/// down to `1/sp` of its maps (first `c/sp` channels — the timing is
/// pattern-independent), compacts a clone, and times eval-mode forward
/// passes of all three variants on the same batch.
fn bench_forward(
    model: &'static str,
    net: &Network,
    in_channels: usize,
    input_size: usize,
    sp: usize,
    reps: usize,
    rng: &mut Rng,
) -> ForwardRow {
    let mut dense = net.clone();
    let mut masked = net.clone();
    for site in conv_sites(&masked) {
        let c = masked.conv(site.conv).expect("conv site").out_channels();
        let keep = (c / sp).max(1);
        let mask: Vec<f32> = (0..c).map(|i| if i < keep { 1.0 } else { 0.0 }).collect();
        masked.set_channel_mask(site.mask_node, Some(mask));
    }
    let compacted = compact::compact(&masked, in_channels, input_size).expect("compact");
    let report = compacted.report;
    let mut compact_net = compacted.net;

    let x = Tensor::randn(Shape::d4(8, in_channels, input_size, input_size), rng);
    let fwd = |net: &mut Network| {
        std::hint::black_box(net.forward(&x, false).expect("forward"));
    };
    fwd(&mut dense); // warm all three (arena, page-in)
    fwd(&mut masked);
    fwd(&mut compact_net);
    let dense_secs = best_secs(reps, || fwd(&mut dense));
    let masked_secs = best_secs(reps, || fwd(&mut masked));
    let compact_secs = best_secs(reps, || fwd(&mut compact_net));

    // Roofline prediction on the CPU device the benchmark itself runs
    // on a sibling of: the *relative* dense/compact latency is what the
    // measured speedup is checked against.
    let device = devices::xeon_e2620();
    let dense_est = estimate(&device, &dense, in_channels, input_size).expect("roofline dense");
    let compact_est =
        estimate(&device, &compact_net, in_channels, input_size).expect("roofline compact");
    ForwardRow {
        model,
        sp,
        dense_secs,
        masked_secs,
        compact_secs,
        flop_speedup: report.speedup(),
        predicted_speedup: dense_est.total_seconds / compact_est.total_seconds,
    }
}

fn main() {
    let mut rng = Rng::seed_from(2019);
    println!(
        "# kernel benchmarks ({} pool threads)",
        pool::effective_threads()
    );

    let gemm_rows: Vec<GemmRow> = [(128usize, 20usize), (256, 8), (512, 3)]
        .iter()
        .map(|&(s, r)| bench_gemm(s, r, &mut rng))
        .collect();
    for row in &gemm_rows {
        println!(
            "gemm {s}x{s}x{s}: seed {seed:.2} ms ({sg:.2} GFLOP/s) -> blocked {new:.2} ms ({ng:.2} GFLOP/s), {x:.2}x",
            s = row.size,
            seed = row.seed_secs * 1e3,
            sg = gflops(row.size, row.seed_secs),
            new = row.new_secs * 1e3,
            ng = gflops(row.size, row.new_secs),
            x = row.seed_secs / row.new_secs,
        );
    }

    // Conv forward/backward on a mid-size layer.
    let mut conv = Conv2d::new(16, 32, 3, 1, 1, &mut rng);
    let x = Tensor::randn(Shape::d4(8, 16, 32, 32), &mut rng);
    let y = conv.forward(&x, true).expect("conv forward");
    let dy = Tensor::ones(y.shape().clone());
    conv.backward(&dy).expect("conv backward");
    let conv_fwd_secs = best_secs(10, || {
        std::hint::black_box(conv.forward(&x, true).expect("conv forward"));
    });
    // Forward once more so every timed backward has a fresh input cache.
    let conv_bwd_secs = best_secs(10, || {
        conv.forward(&x, true).expect("conv forward");
        std::hint::black_box(conv.backward(&dy).expect("conv backward"));
    }) - conv_fwd_secs;
    println!(
        "conv fwd {:.2} ms, bwd {:.2} ms",
        conv_fwd_secs * 1e3,
        conv_bwd_secs * 1e3
    );

    // Full train step (zero_grad + forward + loss + backward + SGD) on a
    // small conv net.
    let mut net = Network::new();
    net.push(Node::Conv(Conv2d::new(3, 16, 3, 1, 1, &mut rng)));
    net.push(Node::Relu(ReLU::new()));
    net.push(Node::MaxPool(MaxPool2d::new(2)));
    net.push(Node::Conv(Conv2d::new(16, 32, 3, 1, 1, &mut rng)));
    net.push(Node::Relu(ReLU::new()));
    net.push(Node::Gap(GlobalAvgPool::new()));
    net.push(Node::Linear(Linear::new(32, 10, &mut rng)));
    let images = Tensor::randn(Shape::d4(16, 3, 16, 16), &mut rng);
    let labels: Vec<usize> = (0..16).map(|i| i % 10).collect();
    let mut opt = Sgd::new(0.01);
    let mut step = || {
        net.zero_grad();
        let logits = net.forward(&images, true).expect("forward");
        let (_, grad) = softmax_cross_entropy(&logits, &labels).expect("loss");
        net.backward(&grad).expect("backward");
        opt.step(&mut net);
    };
    step(); // warm the arena
    let train_step_secs = best_secs(10, &mut step);
    println!("train step {:.2} ms", train_step_secs * 1e3);

    // Whole-network forward passes: the same pruning decision as masks
    // (logical) and as compacted shapes (physical), per model and
    // target speedup, against the roofline model's prediction.
    let vgg = models::vgg11(3, 10, 32, 0.5, &mut rng).expect("vgg11");
    let alex = models::alexnet(3, 10, 32, 0.5, &mut rng).expect("alexnet");
    let mut forward_rows = Vec::new();
    for (name, net) in [("vgg11", &vgg), ("alexnet", &alex)] {
        for sp in [2usize, 4] {
            let row = bench_forward(name, net, 3, 32, sp, 5, &mut rng);
            println!(
                "forward {name} sp={sp}: dense {:.2} ms, masked {:.2} ms, compact {:.2} ms \
                 -> {:.2}x measured ({:.2}x flops, {:.2}x roofline, {:.1}% error)",
                row.dense_secs * 1e3,
                row.masked_secs * 1e3,
                row.compact_secs * 1e3,
                row.measured_speedup(),
                row.flop_speedup,
                row.predicted_speedup,
                row.prediction_error_pct(),
            );
            forward_rows.push(row);
        }
    }

    let forward_json = forward_rows
        .iter()
        .map(|row| {
            Json::obj(vec![
                ("model".into(), Json::str(row.model)),
                ("sp".into(), Json::Num(row.sp as f64)),
                ("dense_secs".into(), Json::Num(row.dense_secs)),
                ("masked_secs".into(), Json::Num(row.masked_secs)),
                ("compact_secs".into(), Json::Num(row.compact_secs)),
                ("measured_speedup".into(), Json::Num(row.measured_speedup())),
                (
                    "masked_speedup".into(),
                    Json::Num(row.dense_secs / row.masked_secs),
                ),
                ("flop_speedup".into(), Json::Num(row.flop_speedup)),
                ("predicted_speedup".into(), Json::Num(row.predicted_speedup)),
                (
                    "prediction_error_pct".into(),
                    Json::Num(row.prediction_error_pct()),
                ),
            ])
        })
        .collect();
    let gemm_json = gemm_rows
        .iter()
        .map(|row| {
            Json::obj(vec![
                ("size".into(), Json::Num(row.size as f64)),
                ("seed_secs".into(), Json::Num(row.seed_secs)),
                ("new_secs".into(), Json::Num(row.new_secs)),
                ("speedup".into(), Json::Num(row.seed_secs / row.new_secs)),
                (
                    "new_gflops".into(),
                    Json::Num(gflops(row.size, row.new_secs)),
                ),
            ])
        })
        .collect();
    // Snapshot the telemetry metrics registry: by now the timed kernels
    // have driven every hs_tensor_* counter, so the artifact records how
    // much work (GEMM calls/FLOPs, im2col bytes, pool batches, scratch
    // high-water) the benchmark actually exercised.
    let metrics_json = hs_telemetry::metrics::snapshot()
        .into_iter()
        .map(|m| match m {
            MetricSnapshot::Counter { name, value } => Json::obj(vec![
                ("name".into(), Json::str(name)),
                ("kind".into(), Json::str("counter")),
                ("value".into(), Json::Num(value as f64)),
            ]),
            MetricSnapshot::Gauge { name, value } => Json::obj(vec![
                ("name".into(), Json::str(name)),
                ("kind".into(), Json::str("gauge")),
                ("value".into(), Json::Num(value)),
            ]),
            MetricSnapshot::Histogram {
                name, count, sum, ..
            } => Json::obj(vec![
                ("name".into(), Json::str(name)),
                ("kind".into(), Json::str("histogram")),
                ("count".into(), Json::Num(count as f64)),
                ("sum".into(), Json::Num(sum)),
            ]),
        })
        .collect();
    let doc = Json::obj(vec![
        // Versioned against the telemetry event schema so `hs_obs
        // bench-check` and downstream tooling can refuse files they
        // don't understand.
        (
            "schema_version".into(),
            Json::Num(hs_telemetry::SCHEMA_VERSION as f64),
        ),
        // The pool size actually used by the timed kernels (workers +
        // caller), not just the configured target: `HS_NUM_THREADS`
        // overrides are reflected here.
        (
            "pool_threads".into(),
            Json::Num(pool::effective_threads() as f64),
        ),
        // The knobs that shaped this run, so two BENCH files are only
        // ever compared like-for-like.
        (
            "env".into(),
            Json::obj(vec![
                (
                    "hs_num_threads".into(),
                    match std::env::var("HS_NUM_THREADS") {
                        Ok(v) => Json::str(v),
                        Err(_) => Json::str("unset"),
                    },
                ),
                (
                    "effective_threads".into(),
                    Json::Num(pool::effective_threads() as f64),
                ),
            ]),
        ),
        ("gemm".into(), Json::Arr(gemm_json)),
        ("forward".into(), Json::Arr(forward_json)),
        (
            "conv".into(),
            Json::obj(vec![
                ("forward_secs".into(), Json::Num(conv_fwd_secs)),
                ("backward_secs".into(), Json::Num(conv_bwd_secs)),
            ]),
        ),
        ("train_step_secs".into(), Json::Num(train_step_secs)),
        ("metrics".into(), Json::Arr(metrics_json)),
    ]);

    let out_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json");
    write_json(out_path, &doc).expect("write BENCH_kernels.json");
    println!("wrote {out_path}");
}
