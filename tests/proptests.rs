//! Property-based tests over the workspace's core invariants.
//!
//! The original external property-testing dependency is unavailable in
//! the offline build, so each property is driven by a deterministic
//! `Rng`-seeded loop: every iteration draws fresh random dimensions and
//! values, which preserves the shrink-free spirit of the originals while
//! keeping failures reproducible from the printed iteration seed.

use headstart::gpusim::{estimate_workload, LayerWork, Workload};
use headstart::nn::layer::{
    AvgPool2d, BatchNorm2d, Conv2d, GlobalAvgPool, Linear, MaxPool2d, ReLU,
};
use headstart::nn::surgery::{conv_sites, keep_from_mask, prune_feature_maps};
use headstart::nn::{checkpoint, Network, Node};
use headstart::pruning::top_k_indices;
use headstart::tensor::{col2im, im2col, Conv2dGeometry, Rng, Shape, Tensor};

const CASES: u64 = 64;

/// Reshape preserves the buffer; double reshape round-trips.
#[test]
fn reshape_round_trips() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from(seed);
        let n = 1 + rng.below(5);
        let m = 1 + rng.below(5);
        let t = Tensor::randn(Shape::d2(n, m), &mut rng);
        let flat = t.clone().reshape(Shape::d1(n * m)).unwrap();
        assert_eq!(flat.data(), t.data(), "seed {seed}");
        let back = flat.reshape(Shape::d2(n, m)).unwrap();
        assert_eq!(back, t, "seed {seed}");
    }
}

/// index_select along axis 0 with the identity index set reassembles the
/// original.
#[test]
fn index_select_axis0_is_row_extraction() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from(seed);
        let rows = 1 + rng.below(4);
        let cols = 1 + rng.below(4);
        let t = Tensor::randn(Shape::d2(rows, cols), &mut rng);
        let all: Vec<usize> = (0..rows).collect();
        assert_eq!(t.index_select(0, &all).unwrap(), t, "seed {seed}");
    }
}

/// ⟨im2col(x), y⟩ == ⟨x, col2im(y)⟩ for random geometries — the
/// adjoint identity that conv backprop correctness rests on.
#[test]
fn im2col_col2im_adjoint() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from(seed);
        let c = 1 + rng.below(3);
        let h = 4 + rng.below(5);
        let k = 1 + rng.below(3);
        let stride = 1 + rng.below(2);
        let padding = rng.below(2);
        if h + 2 * padding < k {
            continue;
        }
        let geom = Conv2dGeometry::new(c, h, h, k, stride, padding);
        let x = Tensor::randn(Shape::d3(c, h, h), &mut rng);
        let y = Tensor::randn(Shape::d2(geom.col_rows(), geom.col_cols()), &mut rng);
        let lhs: f64 = im2col(&x, &geom)
            .unwrap()
            .data()
            .iter()
            .zip(y.data())
            .map(|(a, b)| (a * b) as f64)
            .sum();
        let rhs: f64 = x
            .data()
            .iter()
            .zip(col2im(&y, &geom).unwrap().data())
            .map(|(a, b)| (a * b) as f64)
            .sum();
        assert!(
            (lhs - rhs).abs() < 1e-2 * (1.0 + lhs.abs()),
            "seed {seed}: {lhs} vs {rhs}"
        );
    }
}

/// matmul distributes over addition: (A+B)·C == A·C + B·C.
#[test]
fn matmul_is_linear() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from(seed);
        let m = 1 + rng.below(4);
        let k = 1 + rng.below(4);
        let n = 1 + rng.below(4);
        let a = Tensor::randn(Shape::d2(m, k), &mut rng);
        let b = Tensor::randn(Shape::d2(m, k), &mut rng);
        let c = Tensor::randn(Shape::d2(k, n), &mut rng);
        let lhs = (&a + &b).matmul(&c).unwrap();
        let rhs = &a.matmul(&c).unwrap() + &b.matmul(&c).unwrap();
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            assert!(
                (x - y).abs() < 1e-4 * (1.0 + x.abs()),
                "seed {seed}: {x} vs {y}"
            );
        }
    }
}

/// top_k returns exactly k sorted, distinct, in-range indices, and no
/// excluded score strictly beats an included one.
#[test]
fn top_k_is_a_correct_selection() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from(seed);
        let len = 1 + rng.below(29);
        let scores: Vec<f32> = (0..len).map(|_| rng.uniform_in(-100.0, 100.0)).collect();
        let frac = rng.uniform_in(0.01, 1.0);
        let k = ((len as f32 * frac).ceil() as usize).clamp(1, len);
        let keep = top_k_indices(&scores, k);
        assert_eq!(keep.len(), k, "seed {seed}");
        assert!(keep.windows(2).all(|w| w[0] < w[1]), "seed {seed}");
        assert!(keep.iter().all(|&i| i < len), "seed {seed}");
        let min_kept = keep
            .iter()
            .map(|&i| scores[i])
            .fold(f32::INFINITY, f32::min);
        for (i, &s) in scores.iter().enumerate() {
            if !keep.contains(&i) {
                assert!(
                    s <= min_kept,
                    "seed {seed}: excluded {s} beats kept min {min_kept}"
                );
            }
        }
    }
}

/// keep_from_mask inverts a 0/1 mask.
#[test]
fn keep_from_mask_matches_nonzeros() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from(seed);
        let len = 1 + rng.below(39);
        let bits: Vec<bool> = (0..len).map(|_| rng.bernoulli(0.5)).collect();
        let mask: Vec<f32> = bits.iter().map(|&b| if b { 1.0 } else { 0.0 }).collect();
        let keep = keep_from_mask(&mask);
        assert_eq!(
            keep.len(),
            bits.iter().filter(|&&b| b).count(),
            "seed {seed}"
        );
        for &i in &keep {
            assert!(bits[i], "seed {seed}");
        }
    }
}

/// Surgery == masking, for arbitrary non-empty keep sets on a small
/// conv-bn-relu-conv network (eval mode).
#[test]
fn surgery_equals_masking() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from(seed);
        let bits: Vec<bool> = (0..6).map(|_| rng.bernoulli(0.5)).collect();
        let keep: Vec<usize> = bits
            .iter()
            .enumerate()
            .filter_map(|(i, &b)| b.then_some(i))
            .collect();
        if keep.is_empty() {
            continue;
        }
        let mut net = Network::new();
        net.push(Node::Conv(Conv2d::new(2, 6, 3, 1, 1, &mut rng)));
        net.push(Node::Bn(BatchNorm2d::new(6)));
        net.push(Node::Relu(ReLU::new()));
        net.push(Node::Conv(Conv2d::new(6, 3, 3, 1, 1, &mut rng)));
        let x = Tensor::randn(Shape::d4(2, 2, 6, 6), &mut rng);
        for _ in 0..3 {
            net.forward(&x, true).unwrap(); // warm BN statistics
        }
        let mask: Vec<f32> = bits.iter().map(|&b| if b { 1.0 } else { 0.0 }).collect();
        let mut masked = net.clone();
        masked.set_channel_mask(2, Some(mask));
        let y_masked = masked.forward(&x, false).unwrap();
        let site = conv_sites(&net)[0];
        prune_feature_maps(&mut net, site.conv, &keep).unwrap();
        let y_pruned = net.forward(&x, false).unwrap();
        for (a, b) in y_masked.data().iter().zip(y_pruned.data()) {
            assert!(
                (a - b).abs() < 1e-3 * (1.0 + a.abs()),
                "seed {seed}: {a} vs {b}"
            );
        }
    }
}

/// Augmentation preserves shape and never invents values: every output
/// pixel is either zero (padding) or present somewhere in the same
/// sample/channel of the input.
#[test]
fn augmentation_is_a_permutation_with_padding() {
    use headstart::data::Augment;
    for seed in 0..CASES {
        let mut rng = Rng::seed_from(seed);
        let pad = rng.below(3);
        let flip = rng.bernoulli(0.5);
        let x = Tensor::randn(Shape::d4(2, 2, 6, 6), &mut rng);
        let aug = Augment { flip, pad };
        let y = aug.apply(&x, &mut rng).unwrap();
        assert_eq!(y.shape(), x.shape(), "seed {seed}");
        for n in 0..2 {
            for c in 0..2 {
                let src: Vec<f32> = (0..36).map(|p| x.at(&[n, c, p / 6, p % 6])).collect();
                for p in 0..36 {
                    let v = y.at(&[n, c, p / 6, p % 6]);
                    assert!(
                        v == 0.0 || src.contains(&v),
                        "seed {seed}: pixel {v} not from source (n={n}, c={c})"
                    );
                }
            }
        }
    }
}

/// Checkpoints round-trip random small architectures bit-exactly: the
/// restored network computes the identical function.
#[test]
fn checkpoint_round_trips_random_architectures() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from(seed);
        let n_stages = 1 + rng.below(3);
        let stages: Vec<(usize, bool, u8)> = (0..n_stages)
            .map(|_| (2 + rng.below(4), rng.bernoulli(0.5), rng.below(3) as u8))
            .collect();
        let classes = 2 + rng.below(3);
        let mut net = Network::new();
        let mut channels = 2usize;
        let mut spatial = 8usize;
        for (out, with_bn, pool_kind) in &stages {
            net.push(Node::Conv(Conv2d::new(channels, *out, 3, 1, 1, &mut rng)));
            if *with_bn {
                net.push(Node::Bn(BatchNorm2d::new(*out)));
            }
            net.push(Node::Relu(ReLU::new()));
            if spatial >= 4 {
                match pool_kind {
                    1 => {
                        net.push(Node::MaxPool(MaxPool2d::new(2)));
                        spatial /= 2;
                    }
                    2 => {
                        net.push(Node::AvgPool(AvgPool2d::new(2)));
                        spatial /= 2;
                    }
                    _ => {}
                }
            }
            channels = *out;
        }
        net.push(Node::Gap(GlobalAvgPool::new()));
        net.push(Node::Linear(Linear::new(channels, classes, &mut rng)));
        // Warm BN so running stats are non-trivial, then round-trip.
        let x = Tensor::randn(Shape::d4(2, 2, 8, 8), &mut rng);
        net.forward(&x, true).unwrap();
        let bytes = checkpoint::to_bytes(&net).unwrap();
        let mut restored = checkpoint::from_bytes(&bytes).unwrap();
        let ya = net.forward(&x, false).unwrap();
        let yb = restored.forward(&x, false).unwrap();
        assert_eq!(ya, yb, "seed {seed}");
        // Serialization is byte-stable.
        assert_eq!(
            bytes,
            checkpoint::to_bytes(&restored).unwrap(),
            "seed {seed}"
        );
    }
}

/// Roofline latency is monotone: strictly more MACs and bytes on every
/// kernel can never be faster.
#[test]
fn roofline_latency_is_monotone() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from(seed);
        let n_layers = 1 + rng.below(7);
        let macs: Vec<u64> = (0..n_layers)
            .map(|_| 1 + rng.below(9_999_999) as u64)
            .collect();
        let extra = 1 + rng.below(999_999) as u64;
        let mk = |macs: &[u64], bump: u64| Workload {
            name: "w".into(),
            layers: macs
                .iter()
                .map(|&m| LayerWork {
                    kind: "conv".into(),
                    macs: m + bump,
                    bytes_read: 4 * (m + bump),
                    bytes_written: 1024,
                })
                .collect(),
        };
        let d = headstart::gpusim::devices::gtx_1080ti();
        let base = estimate_workload(&d, &mk(&macs, 0)).unwrap().total_seconds;
        let bigger = estimate_workload(&d, &mk(&macs, extra))
            .unwrap()
            .total_seconds;
        assert!(bigger >= base, "seed {seed}: {bigger} < {base}");
    }
}

/// The reward algebra (Eqs. 2–4): on-target actions with equal accuracy
/// always dominate off-target ones.
#[test]
fn reward_prefers_target_speedup() {
    use headstart::core::reward::reward;
    for seed in 0..CASES {
        let mut rng = Rng::seed_from(seed);
        let total = 4 + rng.below(252);
        let acc = rng.uniform_in(0.0, 1.0);
        let sp = 2.0f32;
        let on_target = (total as f32 / sp).round() as usize;
        if on_target < 1 || on_target >= total {
            continue;
        }
        let r_on = reward(acc, 0.8, total, on_target, sp);
        let r_off = reward(acc, 0.8, total, (on_target / 2).max(1), sp);
        assert!(r_on >= r_off, "seed {seed}: {r_on} < {r_off}");
    }
}

/// The coordinator's work-assignment schedule is an exact partition:
/// for arbitrary item/worker counts, every item index lands in exactly
/// one shard (none lost, none duplicated), each shard is sorted, and no
/// shard holds more than its fair round-robin share.
#[test]
fn shard_plan_is_an_exact_partition() {
    use headstart::coord::ShardPlan;
    for seed in 0..CASES {
        let mut rng = Rng::seed_from(seed);
        let n_items = rng.below(200);
        let n_workers = rng.below(17);
        let plan = ShardPlan::assign(n_items, n_workers);
        assert_eq!(plan.worker_count(), n_workers.max(1), "seed {seed}");
        assert_eq!(plan.item_count(), n_items, "seed {seed}");
        let fair_share = n_items.div_ceil(n_workers.max(1));
        let mut seen = vec![0usize; n_items];
        for shard in plan.shards() {
            assert!(
                shard.len() <= fair_share,
                "seed {seed}: shard over fair share"
            );
            for pair in shard.windows(2) {
                assert!(pair[0] < pair[1], "seed {seed}: shard not increasing");
            }
            for &item in shard {
                assert!(item < n_items, "seed {seed}: item {item} out of range");
                seen[item] += 1;
            }
        }
        assert!(
            seen.iter().all(|&count| count == 1),
            "seed {seed}: schedule lost or duplicated an item: {seen:?}"
        );
    }
}

#[test]
fn fault_plans_round_trip_through_their_spec() {
    use headstart::telemetry::faults::{Fault, FaultPlan, KIND_SITES};
    for seed in 0..CASES {
        let mut rng = Rng::seed_from(seed);
        let mut faults = Vec::new();
        for _ in 0..1 + rng.below(6) {
            let (kind, sites) = KIND_SITES[rng.below(KIND_SITES.len())];
            // Replica-scoped kinds have no fixed site list; any
            // `replica<K>` is valid.
            let site = if sites.is_empty() {
                format!("replica{}", rng.below(8))
            } else {
                sites[rng.below(sites.len())].to_string()
            };
            let fault = Fault {
                kind: kind.to_string(),
                site,
                nth: 1 + rng.below(9) as u64,
            };
            if !faults.contains(&fault) {
                faults.push(fault);
            }
        }
        let plan = FaultPlan { faults };
        // format -> parse -> format is a fixed point: the rendered spec
        // is canonical (`kind:site:n` with the count always explicit).
        let spec = plan.to_string();
        let parsed = FaultPlan::parse(&spec).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert_eq!(parsed, plan, "seed {seed}: parse changed the plan");
        assert_eq!(parsed.to_string(), spec, "seed {seed}: spec not canonical");
    }
}

/// Characters that stress the JSON string escaper and the parser's
/// character walk: quotes, backslashes, control characters, multi-byte
/// text and a solidus (accepted escaped or bare).
const JSON_CHARS: [char; 16] = [
    '"', '\\', '\n', '\t', '\r', '\u{0}', '\u{8}', '\u{1f}', '/', 'a', 'Z', ' ', 'é', '✓', '😀',
    '\u{2028}',
];

fn random_json_str(rng: &mut Rng) -> String {
    (0..rng.below(6))
        .map(|_| JSON_CHARS[rng.below(JSON_CHARS.len())])
        .collect()
}

/// Integral, fractional, negative, ≥1e15 and arbitrary finite doubles.
fn random_json_num(rng: &mut Rng) -> f64 {
    let sign = if rng.below(2) == 0 { 1.0 } else { -1.0 };
    sign * match rng.below(4) {
        0 => rng.below(10_000) as f64,
        1 => f64::from(rng.uniform()) * 10f64.powi(rng.below(12) as i32 - 6),
        2 => 1e15 * (1 + rng.below(1 << 20)) as f64,
        _ => loop {
            let x = f64::from_bits(rng.next_u64());
            if x.is_finite() {
                break x;
            }
        },
    }
}

fn random_json(rng: &mut Rng, depth: usize) -> headstart::telemetry::schema::Json {
    use headstart::telemetry::schema::Json;
    match rng.below(if depth == 0 { 4 } else { 6 }) {
        0 => Json::Null,
        1 => Json::Bool(rng.below(2) == 1),
        2 => Json::Num(random_json_num(rng)),
        3 => Json::Str(random_json_str(rng)),
        4 => Json::Arr(
            (0..rng.below(4))
                .map(|_| random_json(rng, depth - 1))
                .collect(),
        ),
        _ => Json::obj(
            (0..rng.below(4))
                .map(|_| (random_json_str(rng), random_json(rng, depth - 1)))
                .collect(),
        ),
    }
}

/// Both renderings of a random tree parse back to the same tree.
#[test]
fn json_round_trips_through_both_renderings() {
    use headstart::telemetry::schema::parse;
    for seed in 0..CASES * 4 {
        let mut rng = Rng::seed_from(seed);
        let value = random_json(&mut rng, 4);
        for text in [value.render(), value.render_compact()] {
            let back = parse(&text).unwrap_or_else(|e| panic!("seed {seed}: {e} in {text}"));
            assert_eq!(back, value, "seed {seed}: {text}");
        }
    }
}

/// `text` with one byte flipped, a truncation, or one JSON-significant
/// byte inserted.
fn mutate(text: &str, rng: &mut Rng) -> String {
    const SIGNIFICANT: &[u8] = b"{}[]\",:\\-.0123456789eEtfnu \n";
    let mut bytes = text.as_bytes().to_vec();
    let at = rng.below(bytes.len() + 1);
    match rng.below(3) {
        0 if at < bytes.len() => bytes[at] ^= 1 << rng.below(8),
        1 => bytes.truncate(at),
        _ => bytes.insert(at, SIGNIFICANT[rng.below(SIGNIFICANT.len())]),
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Flipped, truncated and inserted bytes make the parser and the
/// JSONL validator return an error or a value — never panic.
#[test]
fn mutated_json_never_panics_the_parser() {
    use headstart::telemetry::schema::{parse, validate_line};
    use headstart::telemetry::{Event, EventKind, Level};
    for seed in 0..CASES {
        let mut rng = Rng::seed_from(seed);
        let value = random_json(&mut rng, 4);
        let line = Event::new(EventKind::Episode, Level::Debug, "conv:0")
            .message(random_json_str(&mut rng))
            .field("reward", random_json_num(&mut rng))
            .to_json_line();
        for text in [value.render(), value.render_compact(), line] {
            for _ in 0..32 {
                let mutated = mutate(&text, &mut rng);
                let _ = parse(&mutated);
                let _ = validate_line(&mutated);
            }
        }
    }
}

/// Mutated serve manifests and load plans, read the way `hs_serve`
/// reads them, load or fail with a typed error — never panic.
#[test]
fn mutated_manifests_and_plans_never_panic() {
    use headstart::data::DatasetKind;
    use headstart::nn::models::ModelKind;
    use headstart::serve::{LoadSpec, Plan, ServeManifest};
    let manifest = ServeManifest {
        label: "fuzz".into(),
        data: DatasetKind::CubLike,
        model: ModelKind::ResNetCifar { n: 3 },
        width: 0.25,
        sp: 2.0,
        dense: "pretrained.hsck".into(),
        pruned: "final.hsck".into(),
        dense_accuracy: 0.5,
        pruned_accuracy: 0.25,
        dense_params: 1 << 40,
        pruned_params: 1234,
        dense_flops: 8_000_000,
        pruned_flops: 2_000_000,
        pruned_compact: Some("compact.hsck".into()),
    };
    let spec = LoadSpec {
        requests: 4,
        classes: 2,
        tenants: 2,
        ..LoadSpec::default()
    };
    let texts = [
        manifest.to_json().render(),
        spec.open_profile().to_json().render(),
        spec.to_json().render(),
    ];
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("mutated-serve-input.json");
    for seed in 0..CASES {
        let mut rng = Rng::seed_from(seed);
        for text in &texts {
            for _ in 0..8 {
                std::fs::write(&path, mutate(text, &mut rng)).expect("write mutant");
                let _ = ServeManifest::load(&path);
                let _ = Plan::load(&path);
            }
        }
    }
}

/// The committed benchmark file parses and re-renders byte for byte
/// (objects keep their document order).
#[test]
fn committed_bench_file_re_renders_byte_for_byte() {
    let text = include_str!("../BENCH_kernels.json");
    let value = headstart::telemetry::schema::parse(text).expect("BENCH_kernels.json parses");
    assert_eq!(value.render(), text);
}

/// One fixed value pinned in both renderings, as the pretty artifact
/// writer and the compact report writer printed it before they became
/// one type.
#[test]
fn json_renderings_match_the_pinned_golden_strings() {
    use headstart::telemetry::schema::Json;
    let value = Json::obj(vec![
        (
            "name".into(),
            Json::str("golden \"quoted\" \\ path\n\ttab\u{1}ctl é ✓"),
        ),
        ("int".into(), Json::Num(42.0)),
        ("neg".into(), Json::Num(-7.0)),
        ("frac".into(), Json::Num(0.1)),
        ("negfrac".into(), Json::Num(-2.5e-7)),
        ("big".into(), Json::Num(1e15)),
        ("huge".into(), Json::Num(1.5e17)),
        ("inf".into(), Json::Num(f64::INFINITY)),
        ("empty_arr".into(), Json::Arr(vec![])),
        ("empty_obj".into(), Json::obj(vec![])),
        (
            "nested".into(),
            Json::Arr(vec![
                Json::obj(vec![(
                    "k".into(),
                    Json::Arr(vec![Json::Num(1.0), Json::str("x")]),
                )]),
                Json::Arr(vec![]),
            ]),
        ),
    ]);
    let pretty = r#"{
  "name": "golden \"quoted\" \\ path\n\ttab\u0001ctl é ✓",
  "int": 42,
  "neg": -7,
  "frac": 0.1,
  "negfrac": -0.00000025,
  "big": 1000000000000000,
  "huge": 150000000000000000,
  "inf": null,
  "empty_arr": [],
  "empty_obj": {},
  "nested": [
    {
      "k": [
        1,
        "x"
      ]
    },
    []
  ]
}
"#;
    let compact = r#"{"name":"golden \"quoted\" \\ path\n\ttab\u0001ctl é ✓","int":42,"neg":-7,"frac":0.1,"negfrac":-0.00000025,"big":1000000000000000,"huge":150000000000000000,"inf":"inf","empty_arr":[],"empty_obj":{},"nested":[{"k":[1,"x"]},[]]}"#;
    assert_eq!(value.render(), pretty);
    assert_eq!(value.render_compact(), compact);
}
