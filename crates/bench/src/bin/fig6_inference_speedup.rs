//! **Figure 6**: frames-per-second of original vs HeadStart-pruned
//! models on the paper's four platforms (Jetson TX2 CPU+GPU, Xeon +
//! GTX 1080Ti), for VGG and ResNet on both the small (CIFAR-like) and
//! large (CUB-like) input sizes — via the roofline latency model.
//!
//! Architectures are instantiated at the paper's full widths and real
//! input sizes (32×32 CIFAR, 224×224 CUB); the latency model needs only
//! the architecture, not trained weights. The pruned VGG keeps ~50% of
//! every layer's maps (the sp = 2 result of Tables 1–2); the pruned
//! ResNet-110 keeps the paper's learned <10, 10, 7> blocks per group.
//!
//! ```text
//! cargo run --release -p hs-bench --bin fig6_inference_speedup [--artifact PATH]
//! ```

use hs_gpusim::{devices, estimate, DeviceSpec};
use hs_nn::{models, Network, Node};
use hs_telemetry::io::write_json;
use hs_telemetry::schema::Json;
use hs_tensor::Rng;

/// Deactivates blocks so each group keeps `keep[g]` of its `n` blocks
/// (downsample blocks always stay).
fn prune_blocks(net: &mut Network, n: usize, keep: [usize; 3]) {
    let blocks = net.block_indices();
    let groups = models::resnet_block_groups(n);
    let mut kept = [0usize; 3];
    for (&node, &g) in blocks.iter().zip(&groups) {
        let can = match net.node(node) {
            Node::Block(b) => b.can_prune(),
            _ => false,
        };
        let keep_this = !can || kept[g] < keep[g];
        if keep_this {
            kept[g] += 1;
        } else {
            net.set_block_active(node, false).expect("prunable");
        }
    }
}

fn fps_of(device: &DeviceSpec, net: &Network, size: usize) -> f64 {
    estimate(device, net, 3, size).expect("estimate").fps()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let artifact = args
        .iter()
        .position(|a| a == "--artifact")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let mut rng = Rng::seed_from(0);
    println!("# Figure 6 — inference fps, original vs HeadStart-pruned (roofline model)");
    println!(
        "{:<22} {:<16} {:>10} {:>10} {:>8}",
        "SCENARIO", "DEVICE", "ORIG fps", "HS fps", "SPEEDUP"
    );

    // (a) Jetson TX2 (CPU + GPU), (b) Xeon + 1080Ti — all four devices
    // for each scenario.
    let mut rows: Vec<Json> = Vec::new();
    let mut scenario = |name: &str, size: usize, full: &Network, pruned: &Network| {
        for device in devices::all() {
            let f = fps_of(&device, full, size);
            let p = fps_of(&device, pruned, size);
            println!(
                "{:<22} {:<16} {:>10.1} {:>10.1} {:>7.2}x",
                name,
                device.name,
                f,
                p,
                p / f
            );
            rows.push(Json::obj(vec![
                ("scenario".into(), Json::str(name)),
                ("device".into(), Json::str(device.name)),
                ("original_fps".into(), Json::Num(f)),
                ("pruned_fps".into(), Json::Num(p)),
                ("speedup".into(), Json::Num(p / f)),
            ]));
        }
        println!();
    };

    // VGG-16 on CIFAR (32x32): sp = 2 pruning halves every layer.
    let vgg_cifar_full = models::vgg16(3, 100, 32, 1.0, &mut rng).expect("model");
    let vgg_cifar_pruned = models::vgg16(3, 100, 32, 0.5, &mut rng).expect("model");
    scenario("VGG-16 / CIFAR-100", 32, &vgg_cifar_full, &vgg_cifar_pruned);

    // VGG-16 on CUB (224x224).
    let vgg_cub_full = models::vgg16(3, 200, 224, 1.0, &mut rng).expect("model");
    let vgg_cub_pruned = models::vgg16(3, 200, 224, 0.5, &mut rng).expect("model");
    scenario("VGG-16 / CUB-200", 224, &vgg_cub_full, &vgg_cub_pruned);

    // ResNet-110 on CIFAR: the paper's learned <10, 10, 7> blocks.
    let resnet_full = models::resnet_cifar(18, 3, 100, 1.0, &mut rng).expect("model");
    let mut resnet_pruned = models::resnet_cifar(18, 3, 100, 1.0, &mut rng).expect("model");
    prune_blocks(&mut resnet_pruned, 18, [10, 10, 7]);
    scenario("ResNet-110 / CIFAR", 32, &resnet_full, &resnet_pruned);

    // ResNet-110 on CUB-sized inputs (224x224).
    let resnet_cub_full = models::resnet_cifar(18, 3, 200, 1.0, &mut rng).expect("model");
    let mut resnet_cub_pruned = models::resnet_cifar(18, 3, 200, 1.0, &mut rng).expect("model");
    prune_blocks(&mut resnet_cub_pruned, 18, [10, 10, 7]);
    scenario(
        "ResNet-110 / CUB-200",
        224,
        &resnet_cub_full,
        &resnet_cub_pruned,
    );

    if let Some(path) = artifact {
        let doc = Json::obj(vec![("rows".into(), Json::Arr(rows))]);
        write_json(&path, &doc).expect("write artifact");
        println!("wrote {path}");
    }
}
