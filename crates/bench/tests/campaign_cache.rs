//! The level-granular campaign cache in `experiments::Ctx`: a cached
//! campaign equals a fresh `measure` bit for bit, models are kept apart by
//! value, and only missing levels reach the simulator.
//!
//! The obsv recorder slot is process-global, so every test here serializes
//! on one mutex.

use std::sync::{Arc, Mutex, MutexGuard};

use mvasd_bench::experiments::Ctx;
use mvasd_bench::measure;
use mvasd_obsv as obsv;
use mvasd_simnet::ContentionModel;
use mvasd_testbed::apps::{jpetstore, vins, AppModel};

static RECORDER_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    RECORDER_LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

/// JPetStore with a lock convoy on the DB CPU that inflates every service.
fn contended_jpetstore() -> AppModel {
    let mut app = jpetstore::model();
    app.stations[8] = app.stations[8]
        .clone()
        .with_contention(ContentionModel::LinearBeyond {
            threshold: 0,
            slope: 0.5,
            max_factor: 2.0,
        });
    app
}

#[test]
fn cached_campaign_equals_a_fresh_measurement() {
    let _guard = lock();
    let app = vins::model();
    let ctx = Ctx::new();
    // Cold, then partially warm (5 and 10 cached), then fully warm.
    for levels in [&[1, 5, 10][..], &[5, 10, 20], &[20, 10, 1]] {
        assert_eq!(
            ctx.campaign(&app, levels),
            measure(&app, levels),
            "{levels:?}"
        );
    }
}

#[test]
fn contended_model_never_gets_clean_points() {
    let _guard = lock();
    let clean = jpetstore::model();
    let contended = contended_jpetstore();
    assert_ne!(clean, contended);
    let levels = [1, 5, 10];
    let ctx = Ctx::new();
    let clean_campaign = ctx.campaign(&clean, &levels);
    let contended_campaign = ctx.campaign(&contended, &levels);
    assert_eq!(contended_campaign, measure(&contended, &levels));
    assert_ne!(contended_campaign.points, clean_campaign.points);
    // And the clean points survive the contended insertions.
    assert_eq!(ctx.campaign(&clean, &levels), clean_campaign);
}

#[test]
fn only_missing_levels_are_simulated() {
    let _guard = lock();
    let collector = Arc::new(obsv::Collector::new());
    let _scope = obsv::scoped(collector.clone());
    let app = vins::model();
    let ctx = Ctx::new();
    let counts = || {
        let snap = collector.snapshot();
        (snap.counter("simnet.runs"), snap.counter("campaign.levels"))
    };

    let _ = ctx.campaign(&app, &[1, 5, 10]);
    assert_eq!(counts(), (3, 3), "cold cache");
    let _ = ctx.campaign(&app, &[5, 10, 20]);
    assert_eq!(counts(), (4, 4), "only level 20 is missing");
    let _ = ctx.campaign(&app, &[1, 5, 10, 20]);
    assert_eq!(counts(), (4, 4), "fully warm");
    let _ = ctx.campaign(&contended_jpetstore(), &[5]);
    assert_eq!(counts(), (5, 5), "a new model misses");
}
