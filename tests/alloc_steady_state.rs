//! Proves the zero-allocation steady state of the incremental convolution
//! workspace: after `reserve` and a warm-up, advancing populations performs
//! no heap allocation at all.
//!
//! The whole file holds exactly one test so the counting allocator sees no
//! interference from parallel test threads.

#![allow(unsafe_code)] // a counting GlobalAlloc cannot be written without unsafe

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use mvasd_suite::queueing::hierarchy::{
    AggregationOptions, HierarchicalNetwork, HierarchicalWorkspace, Subsystem,
};
use mvasd_suite::queueing::mva::{ClassSpec, ConvWorkspace, MulticlassWorkspace, Workload};
use mvasd_suite::queueing::network::{ClosedNetwork, Station, StationKind};

/// Counts every allocator entry point; deallocation is uncounted (freeing
/// is fine in steady state, allocating is not).
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn workspace_steady_state_allocates_nothing() {
    // VINS-shaped: a 16-core bottleneck with tracked marginals, a
    // single-server disk, and a delay stage — all three factor kinds.
    let net = ClosedNetwork::new(
        vec![
            Station::queueing("cpu16", 16, 1.0, 0.055),
            Station::queueing("disk", 1, 1.0, 0.0098),
            Station::delay("lan", 1.0, 0.0014),
        ],
        1.0,
    )
    .unwrap();
    let demands = net.demands();

    let mut ws = ConvWorkspace::new(&net, &[16, 0, 0]).unwrap();
    ws.reserve(1600);

    // Warm-up: fill the carried columns well past any lazy growth.
    for _ in 0..600 {
        ws.advance().unwrap();
    }
    let mut sink = 0.0f64;

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..900 {
        ws.advance().unwrap();
        sink += ws.throughput() + ws.queues()[0] + ws.marginals_of(0)[0];
    }
    // Same-demand point queries (the sweep warm-restart shape) must also be
    // allocation-free: they extend or re-read the carried columns.
    ws.solve_at(1550, &demands).unwrap();
    ws.solve_at(800, &demands).unwrap();
    sink += ws.throughput();
    let after = ALLOCATIONS.load(Ordering::SeqCst);

    assert!(sink.is_finite());
    assert_eq!(
        after - before,
        0,
        "steady-state advance allocated {} times",
        after - before
    );

    // The hierarchical aggregation engine inherits the same contract:
    // after `reserve` pre-extends every subsystem profile (and rebuilds
    // the parent once), per-step aggregation + disaggregation is
    // allocation-free.
    let tier = |name: &str, cpu: f64, disk: f64| {
        Subsystem::new(
            name,
            vec![
                Station::queueing(&format!("{name}-cpu"), 2, 1.0, cpu).into(),
                Station::queueing(&format!("{name}-disk"), 1, 1.0, disk).into(),
            ],
        )
        .into()
    };
    let net = HierarchicalNetwork::new(
        vec![
            Station::queueing("lb", 1, 1.0, 0.002).into(),
            tier("app", 0.010, 0.004),
            tier("db", 0.016, 0.007),
        ],
        0.5,
    )
    .unwrap();
    let mut hws = HierarchicalWorkspace::new(&net, AggregationOptions::exact(), None).unwrap();
    hws.reserve(400).unwrap();
    for _ in 0..150 {
        hws.advance().unwrap();
    }
    let mut hsink = 0.0f64;

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..200 {
        hws.advance().unwrap();
        hsink += hws.throughput() + hws.leaf_queues()[0];
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);

    assert!(hsink.is_finite());
    assert_eq!(
        after - before,
        0,
        "hierarchical steady-state advance allocated {} times",
        after - before
    );

    // A configured worker pool must not cost the steady state anything:
    // the parallel plan phase defers its first allocation to the first
    // dirty subsystem, and a reserved engine has none — so a 4-worker
    // engine advances exactly as allocation-free as the serial one.
    let mut pws =
        HierarchicalWorkspace::new(&net, AggregationOptions::exact().parallelism(4), None).unwrap();
    pws.reserve(400).unwrap();
    for _ in 0..150 {
        pws.advance().unwrap();
    }
    let mut psink = 0.0f64;

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..200 {
        pws.advance().unwrap();
        psink += pws.throughput() + pws.leaf_queues()[0];
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);

    assert!(psink.is_finite());
    assert_eq!(
        after - before,
        0,
        "parallel hierarchical steady-state advance allocated {} times",
        after - before
    );

    // The carried multiclass workspace makes the same promise: the whole
    // lattice is allocated up front, so advancing a customer (filling one
    // slab) and reading the per-class outputs never touches the allocator.
    let workload = Workload::new(
        vec!["cpu".into(), "disk".into(), "lan".into()],
        vec![
            StationKind::Queueing { servers: 4 },
            StationKind::Queueing { servers: 1 },
            StationKind::Delay,
        ],
        vec![
            ClassSpec {
                name: "a".into(),
                population: 30,
                think_time: 1.0,
                demands: vec![0.020, 0.012, 0.004],
            },
            ClassSpec {
                name: "b".into(),
                population: 20,
                think_time: 0.5,
                demands: vec![0.006, 0.002, 0.004],
            },
            ClassSpec {
                name: "c".into(),
                population: 10,
                think_time: 0.1,
                demands: vec![0.003, 0.001, 0.002],
            },
        ],
    )
    .unwrap();
    let path = workload.proportional_path();
    let mut mws = MulticlassWorkspace::new(&workload).unwrap();
    let warmup = 20usize;
    for &class in &path[..warmup] {
        mws.advance(class).unwrap();
    }
    let mut msink = 0.0f64;

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for &class in &path[warmup..] {
        mws.advance(class).unwrap();
        msink += mws.class_throughputs()[0]
            + mws.station_queues()[0]
            + mws.class_station_queues()[0]
            + mws.station_utilizations()[0];
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);

    assert!(msink.is_finite());
    assert_eq!(
        after - before,
        0,
        "multiclass steady-state advance allocated {} times",
        after - before
    );
}
