//! A closed-loop plan that claims a huge client count must replay its
//! requests without allocating per claimed client. This file holds a
//! single test on purpose: the counting allocator is process-global, so
//! a sibling test running concurrently would move the high-water mark.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use hs_nn::infer::SharedNetwork;
use hs_nn::models;
use hs_serve::{LoadSpec, ModelSlots, Plan, ServeConfig, ServeEngine};
use hs_tensor::{Rng, Shape, Tensor};

/// The system allocator, recording the largest single request.
struct Counting;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// so `System`'s guarantees hold; recording a size touches only an
// atomic and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn a_huge_client_count_replays_without_allocating_per_client() {
    let spec = LoadSpec {
        requests: 10,
        concurrency: 2,
        ..LoadSpec::default()
    };
    let text = spec.to_json().render();
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("huge-closed-plan.json");
    for claimed in ["1e12", "1e19"] {
        let mutated = text.replace("\"concurrency\": 2", &format!("\"concurrency\": {claimed}"));
        assert_ne!(mutated, text, "the plan must name its concurrency");
        std::fs::write(&path, mutated).expect("write plan");
        let plan = Plan::load(&path).expect("a structurally valid plan");

        let mut rng = Rng::seed_from(7);
        let net = models::lenet(1, 4, 8, 0.5, &mut rng).expect("model");
        let slots = ModelSlots::new(SharedNetwork::new(net.clone()), SharedNetwork::new(net));
        let inputs = Tensor::randn(Shape::d4(6, 1, 8, 8), &mut Rng::seed_from(3));
        let mut engine = ServeEngine::new(ServeConfig::default(), slots, inputs).expect("engine");

        LARGEST.store(0, Ordering::Relaxed);
        let outcomes = plan.drive(&mut engine).expect("replay");
        let largest = LARGEST.load(Ordering::Relaxed);
        assert_eq!(outcomes.len(), 10, "concurrency {claimed}");
        assert!(
            largest < 1 << 20,
            "concurrency {claimed} made a {largest}-byte allocation"
        );
    }
}
