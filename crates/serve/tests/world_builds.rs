//! One world per batch: a served batch runs every checkpoint segment on the
//! same live world (one `cmat` build), rebuilds only when a member leaves,
//! and publishes a trace with exactly the world's ranks.
//!
//! World builds are counted on the process-wide `xg_obs` registry, so the
//! tests in this file run one at a time.

use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Duration, Instant};
use xg_serve::artifacts::ArtifactConfig;
use xg_serve::journal::JournalConfig;
use xg_serve::{CampaignServer, JobId, JobSpec, JobState, ServerConfig};
use xg_sim::CgyroInput;
use xgyro_core::{run_xgyro, EnsembleConfig};

static SERIAL: Mutex<()> = Mutex::new(());

/// Four checkpoint segments per batch.
const STEPS: usize = 80;
const CKPT_EVERY: usize = 20;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("xg-world-builds-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One worker, batches of exactly two members flushed when full.
fn config() -> ServerConfig {
    let mut cfg = ServerConfig::local_test();
    cfg.k_max = 2;
    cfg.workers = 1;
    cfg.linger = Duration::from_secs(600);
    cfg.ckpt_every = CKPT_EVERY;
    cfg
}

fn decks() -> Vec<CgyroInput> {
    let base = CgyroInput::test_small();
    (0..2).map(|i| base.with_gradients(1.0 + 0.5 * i as f64, 2.0)).collect()
}

fn submit(server: &CampaignServer, input: &CgyroInput, tag: &str) -> JobId {
    let tenant = "default".into();
    let spec = JobSpec { input: input.clone(), steps: STEPS, tag: tag.into(), tenant };
    server.submit(spec).expect("admitted")
}

fn world_builds() -> u64 {
    xg_obs::Registry::global().world_builds()
}

#[test]
fn a_batch_without_evictions_builds_one_world_and_publishes_its_ranks() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    xg_obs::set_enabled(true);
    let dir = tmpdir("publish");
    let mut cfg = config();
    cfg.artifacts = Some(ArtifactConfig::at(&dir));
    let world_size = 2 * cfg.grid.size();
    let before = world_builds();
    let server = CampaignServer::start(cfg);
    let decks = decks();
    let ids: Vec<JobId> =
        decks.iter().enumerate().map(|(i, d)| submit(&server, d, &format!("m{i}"))).collect();
    assert!(server.drain(Duration::from_secs(120)), "drain timed out");
    for id in &ids {
        assert_eq!(server.status(*id).unwrap().state, JobState::Done);
    }
    server.shutdown();
    assert_eq!(world_builds() - before, 1, "four segments, one world");

    // The published trace covers the batch's world rank for rank — no
    // phantom ranks from earlier segments — and replays.
    let store = xg_artifact::ArtifactStore::open(&dir).expect("store");
    let manifest = store
        .lookup(xg_artifact::deck_hash(&decks[0], STEPS))
        .expect("lookup")
        .expect("published");
    let csv = store.get_object(manifest.trace_object.expect("trace published")).expect("object");
    let traces = xg_comm::traces_from_csv(std::str::from_utf8(&csv).unwrap()).expect("csv");
    assert_eq!(traces.len(), world_size, "one trace entry per world rank");
    let machine = xg_costmodel::MachineModel::frontier_like();
    let placement = xg_costmodel::Placement { ranks_per_node: machine.ranks_per_node };
    let replayed = xg_cluster::replay(&traces, &machine, placement, |_, _| 0.0).expect("replay");
    assert!(replayed.finish_times.iter().all(|t| t.is_finite()));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cancelling_a_member_at_a_middle_boundary_rebuilds_once() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    xg_obs::set_enabled(true);
    let dir = tmpdir("cancel");
    let mut cfg = config();
    cfg.journal = Some(JournalConfig::durable(&dir));
    let before = world_builds();
    let server = CampaignServer::start(cfg);
    let decks = decks();
    let keep = submit(&server, &decks[0], "keep");
    let doomed = submit(&server, &decks[1], "doomed");

    // Running is journaled under the same lock as the transition; the next
    // append is the first boundary's Checkpoint record. Cancelling after it
    // lands the cancellation on a later, still-middle boundary.
    let deadline = Instant::now() + Duration::from_secs(60);
    while server.status(doomed).unwrap().state != JobState::Running {
        assert!(Instant::now() < deadline, "batch never dispatched");
        std::thread::sleep(Duration::from_micros(200));
    }
    let appends = xg_obs::Registry::global().journal_stats().0;
    while xg_obs::Registry::global().journal_stats().0 == appends {
        assert!(Instant::now() < deadline, "first boundary never journaled");
        std::thread::sleep(Duration::from_micros(200));
    }
    assert_eq!(server.cancel(doomed).unwrap(), JobState::Running);
    assert!(server.drain(Duration::from_secs(120)), "drain timed out");
    let st = server.status(doomed).unwrap();
    assert_eq!(st.state, JobState::Cancelled, "{}", st.detail);
    assert_eq!(server.status(keep).unwrap().state, JobState::Done);
    let kept = server.result(keep).expect("outcome");
    server.shutdown();
    assert_eq!(world_builds() - before, 2, "one rebuild for the eviction");

    // The survivor's new world resumed it bitwise on its own trajectory.
    let grid = ServerConfig::local_test().grid;
    let clean = run_xgyro(&EnsembleConfig::new(vec![decks[0].clone()], grid).unwrap(), STEPS);
    assert_eq!(kept.h, clean.sims[0].h);
    let _ = std::fs::remove_dir_all(&dir);
}
