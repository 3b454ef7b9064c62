//! `served_sweep`: campaigns of `test_small` sweep decks sent by one client
//! to a real `xgqueued` over loopback.
//!
//! The client is a closed loop at campaign granularity: it sends one
//! campaign as a burst on one connection, a watcher thread observes each
//! executed job reach `Done` on a second connection (`SUBSCRIBE`, in
//! batch-completion order), and the next campaign starts when the last job
//! of this one is done. Every campaign covers three cmat keys; each key's
//! executed decks arrive in back-to-back pairs, so with `--k-max 2` every
//! flush is `full`. About one deck in four repeats a deck published by an
//! earlier campaign and is served from the artifact cache at admission.

use crate::direct::result_summary;
use crate::host::{self, Stamp};
use crate::layers;
use crate::stats::{median, percentile, summary_json};
use crate::{jstr, Config, Rng, RunOutput};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};
use xg_artifact::{ArtifactStore, JsonValue};
use xg_serve::Client;
use xg_sim::{serial_simulation, CgyroInput};
use xg_tensor::ProcGrid;

/// Ensemble width the daemon batches to (`--k-max`).
const K: usize = 2;
/// cmat keys per campaign (distinct collision frequencies).
const NU_EE: [f64; 3] = [0.08, 0.1, 0.12];
/// Extra daemon spawns (beside the measurement daemons) whose spawn→PING
/// times feed `setup_s`.
const SETUP_REPS: usize = 5;
/// Measurement daemons per untraced run; each runs an equal share of the
/// campaigns.
const DAEMONS: u64 = 3;
/// `--ckpt-every` default of `xgqueued`.
const CKPT_EVERY: usize = 10;
/// Measured campaigns per second of `--seconds`. The amount of work is
/// fixed per run (so peak RSS, which grows with retained jobs, compares
/// like with like); at about 0.3 s per campaign on a 2-vCPU Xeon this
/// measures for about `--seconds`.
const CAMPAIGNS_PER_S: f64 = 3.0;

/// Campaign shape.
#[derive(Clone, Copy, Debug)]
struct Shape {
    /// Steps per job (a multiple of the deck's reporting cadence).
    steps: usize,
    /// Executed pairs per cmat key per campaign.
    pairs_per_key: usize,
    /// Cache-hit decks per campaign.
    hits: usize,
    /// Fewest measured campaigns (enough executed jobs that ≥ 10 job
    /// latencies lie beyond p90).
    min_campaigns: usize,
}

fn shape(tiny: bool) -> Shape {
    if tiny {
        Shape {
            steps: 20,
            pairs_per_key: 1,
            hits: 2,
            min_campaigns: 2,
        }
    } else {
        Shape {
            steps: 40,
            pairs_per_key: 2,
            hits: 4,
            min_campaigns: 9,
        }
    }
}

/// A running `xgqueued` with its scratch directory; killed on drop if it
/// was not shut down cleanly.
struct Daemon {
    child: Child,
    addr: String,
    dir: PathBuf,
}

impl Daemon {
    /// Spawn a daemon in a fresh `dir`; returns it and the seconds from
    /// spawn to the first `PING` reply.
    fn spawn(bin: &Path, dir: &Path, obs: bool) -> Result<(Daemon, f64), String> {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let log = |name: &str| {
            std::fs::File::create(dir.join(name)).map_err(|e| format!("create log {name}: {e}"))
        };
        let out_path = dir.join("daemon.out");
        let t0 = Instant::now();
        let child = Command::new(bin)
            .args([
                "--addr",
                "127.0.0.1:0",
                "--grid",
                "1x1",
                "--k-max",
                "2",
                "--workers",
                "1",
            ])
            .arg("--journal")
            .arg(dir.join("journal"))
            .arg("--artifacts")
            .arg(dir.join("artifacts"))
            .env("XGYRO_OBS", if obs { "1" } else { "0" })
            .stdin(Stdio::null())
            .stdout(log("daemon.out")?)
            .stderr(log("daemon.err")?)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut d = Daemon {
            child,
            addr: String::new(),
            dir: dir.to_path_buf(),
        };
        loop {
            let text = std::fs::read_to_string(&out_path).unwrap_or_default();
            if let Some(rest) = text.split("listening on ").nth(1) {
                if let Some(addr) = rest.split_whitespace().next() {
                    d.addr = addr.to_string();
                    break;
                }
            }
            if let Ok(Some(status)) = d.child.try_wait() {
                let err = std::fs::read_to_string(dir.join("daemon.err")).unwrap_or_default();
                return Err(format!("xgqueued exited with {status}: {}", err.trim()));
            }
            if t0.elapsed() > Duration::from_secs(30) {
                return Err("xgqueued did not report its address within 30 s".into());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        let mut c = d.connect()?;
        let pong = c.roundtrip("PING").map_err(|e| format!("PING: {e}"))?;
        let setup = t0.elapsed().as_secs_f64();
        if pong != "OK pong" {
            return Err(format!("PING answered {pong:?}"));
        }
        Ok((d, setup))
    }

    /// A client whose every read and write times out after a minute, so a
    /// hung daemon fails the run instead of stalling it.
    fn connect(&self) -> Result<Client, String> {
        Client::connect_with_timeout(&self.addr, Duration::from_secs(60))
            .map_err(|e| format!("connect {}: {e}", self.addr))
    }

    /// `SHUTDOWN`, then wait for the process to exit. Every other client
    /// connection must be closed first (the daemon joins its handlers).
    fn shutdown(mut self) -> Result<(), String> {
        let reply = self
            .connect()?
            .roundtrip("SHUTDOWN")
            .map_err(|e| format!("SHUTDOWN: {e}"))?;
        let t0 = Instant::now();
        while t0.elapsed() < Duration::from_secs(30) {
            if let Ok(Some(status)) = self.child.try_wait() {
                return if status.success() && reply == "OK bye" {
                    Ok(())
                } else {
                    Err(format!("xgqueued shutdown: reply {reply:?}, exit {status}"))
                };
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Err("xgqueued did not exit within 30 s of SHUTDOWN".into())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Seeded deck source: unique sweep members over the three cmat keys.
struct Decks {
    rng: Rng,
    next_seed: u64,
}

impl Decks {
    fn deck(&mut self, key: usize) -> CgyroInput {
        let mut d = CgyroInput::test_small();
        d.nu_ee = NU_EE[key];
        self.next_seed += 1;
        d.with_gradients(0.5 + 2.0 * self.rng.unit(), 1.5 + 3.0 * self.rng.unit())
            .with_seed(self.next_seed)
    }
}

/// One unit of a campaign's burst.
enum Unit {
    /// Two executed decks of one key, submitted back to back.
    Pair(Box<[CgyroInput; 2]>),
    /// Index into the pool of already-published decks.
    Hit(usize),
}

/// A submitted executed job.
#[derive(Clone, Debug)]
struct Submitted {
    id: String,
    deck: usize,
    t_submit: Stamp,
}

/// What the watcher observed for one job.
#[derive(Clone, Debug)]
struct Observed {
    job: Submitted,
    t_done: Stamp,
    done: bool,
    events: Vec<(Instant, String)>,
}

/// Watcher: for each batch (in flush order) subscribe to each member until
/// it terminalizes.
fn watcher(
    mut client: Client,
    rx: mpsc::Receiver<(Vec<Submitted>, Stamp)>,
    tx: mpsc::Sender<(Vec<Observed>, Stamp)>,
) {
    for (jobs, flushed) in rx {
        let mut seen = Vec::new();
        for job in jobs {
            let mut events = Vec::new();
            let last = client.subscribe(&job.id, |line| {
                events.push((Instant::now(), line.to_string()))
            });
            let t_done = Stamp::now();
            let done = matches!(&last, Ok(l) if l.split_whitespace().nth(2) == Some("Done"));
            seen.push(Observed {
                job,
                t_done,
                done,
                events,
            });
        }
        if tx.send((seen, flushed)).is_err() {
            return;
        }
    }
}

/// Everything measured against one daemon.
#[derive(Default)]
struct Samples {
    /// Every deck executed (warm-up included), by index.
    decks: Vec<CgyroInput>,
    /// `RESULT` fingerprints of executed decks, by deck index.
    results: BTreeMap<usize, (u64, [u64; 4])>,
    /// Decks published so far (indices into `decks`).
    pool: Vec<usize>,
    campaign_msps: Vec<f64>,
    raw_campaign_msps: Vec<f64>,
    job_lat_ms: Vec<f64>,
    hit_lat_ms: Vec<f64>,
    submit_rtt_ms: Vec<f64>,
    exec_ms: Vec<f64>,
    measured_jobs: Vec<String>,
    executed: usize,
    submitted: usize,
    campaigns: usize,
}

fn parse_submit(reply: &str) -> Result<(String, String), String> {
    let mut it = reply.split_whitespace();
    match (
        it.next(),
        it.next(),
        it.next().and_then(|b| b.strip_prefix("batch=")),
    ) {
        (Some("OK"), Some(id), Some(batch)) => Ok((id.to_string(), batch.to_string())),
        _ => Err(format!("SUBMIT refused: {reply}")),
    }
}

fn parse_result(reply: &str) -> Option<(u64, [u64; 4])> {
    let hex = |s: &str| u64::from_str_radix(s.trim_start_matches("0x"), 16).ok();
    let h = reply
        .split_whitespace()
        .find_map(|t| t.strip_prefix("h_hash="))?;
    let diag: Vec<u64> = reply
        .split_whitespace()
        .find_map(|t| t.strip_prefix("diag="))?
        .split(',')
        .map(hex)
        .collect::<Option<_>>()?;
    Some((hex(h)?, diag.try_into().ok()?))
}

/// Run one campaign: burst, wait for every executed job, then fetch and
/// record `RESULT` fingerprints (untimed). `measured` campaigns feed the
/// samples; the warm-up only seeds the published pool.
#[allow(clippy::too_many_arguments)]
fn campaign(
    cfg: &Config,
    sh: Shape,
    gen: &mut Decks,
    s: &mut Samples,
    a: &mut Client,
    to_watch: &mpsc::Sender<(Vec<Submitted>, Stamp)>,
    from_watch: &mpsc::Receiver<(Vec<Observed>, Stamp)>,
    out: &mut RunOutput,
    measured: bool,
) -> Result<(), String> {
    let mut units = Vec::new();
    for key in 0..NU_EE.len() {
        for _ in 0..sh.pairs_per_key {
            units.push(Unit::Pair(Box::new([gen.deck(key), gen.deck(key)])));
        }
    }
    if measured {
        for _ in 0..sh.hits {
            units.push(Unit::Hit(s.pool[gen.rng.below(s.pool.len())]));
        }
    }
    gen.rng.shuffle(&mut units);
    let cid = format!("campaign-{}", s.campaigns);
    let t_start = Stamp::now();
    let mut batches = 0;
    let mut hits = Vec::new();
    for unit in units {
        match unit {
            Unit::Pair(pair) => {
                let mut jobs = Vec::new();
                let mut flushed = t_start.clone();
                for input in *pair {
                    let text = xg_sim::write_deck(&input);
                    let t0 = Stamp::now();
                    let reply = a
                        .submit_deck(&text, sh.steps, "xgbench", false)
                        .map_err(|e| format!("SUBMIT: {e}"))?;
                    flushed = Stamp::now();
                    if measured {
                        s.submit_rtt_ms.push(flushed.wall_since(&t0) * 1e3);
                        s.submitted += 1;
                    }
                    out.attempted += 1;
                    let (id, batch) = match parse_submit(&reply) {
                        Ok(v) => v,
                        Err(e) => {
                            out.failed += 1;
                            out.gate(e);
                            continue;
                        }
                    };
                    out.spans
                        .add("submit", t0.t, flushed.t, None, format!("{cid}/{id}"));
                    if batch == "-" {
                        out.failed += 1;
                        out.gate(format!("{id}: a never-published deck was not batched"));
                    }
                    s.decks.push(input);
                    jobs.push(Submitted {
                        id,
                        deck: s.decks.len() - 1,
                        t_submit: t0,
                    });
                }
                batches += 1;
                to_watch
                    .send((jobs, flushed))
                    .map_err(|_| "watcher thread stopped".to_string())?;
            }
            Unit::Hit(deck) => {
                let text = xg_sim::write_deck(&s.decks[deck]);
                let t0 = Instant::now();
                let reply = a
                    .submit_deck(&text, sh.steps, "xgbench", false)
                    .map_err(|e| format!("SUBMIT: {e}"))?;
                let t1 = Instant::now();
                s.submit_rtt_ms.push((t1 - t0).as_secs_f64() * 1e3);
                s.submitted += 1;
                out.attempted += 1;
                let id = match parse_submit(&reply) {
                    Ok((id, _)) => id,
                    Err(e) => {
                        out.failed += 1;
                        out.gate(e);
                        continue;
                    }
                };
                // A hit is born Done at admission, so the SUBMIT reply is
                // its first observation; STATUS (untimed) confirms it.
                out.spans.add("submit", t0, t1, None, format!("{cid}/{id}"));
                let status = a
                    .roundtrip(&format!("STATUS {id}"))
                    .map_err(|e| format!("STATUS: {e}"))?;
                if !status.contains("state=Done") {
                    out.failed += 1;
                    out.gate(format!(
                        "{id}: repeated deck not served from the cache: {status}"
                    ));
                    continue;
                }
                s.hit_lat_ms.push((t1 - t0).as_secs_f64() * 1e3);
                hits.push((id, deck));
            }
        }
    }

    // Wait for every executed job, in batch-completion order.
    let mut observed = Vec::new();
    let mut prev_done: Option<Stamp> = None;
    for _ in 0..batches {
        let (seen, flushed) = from_watch
            .recv()
            .map_err(|_| "watcher thread stopped".to_string())?;
        let first_done = seen
            .iter()
            .map(|o| &o.t_done)
            .min_by_key(|d| d.t)
            .unwrap_or(&flushed)
            .clone();
        let began = match prev_done {
            Some(p) if p.t > flushed.t => p,
            _ => flushed,
        };
        if measured {
            s.exec_ms.push(first_done.secs_since(&began) * 1e3);
        }
        prev_done = Some(first_done);
        observed.extend(seen);
    }
    let t_end = observed
        .iter()
        .map(|o| &o.t_done)
        .max_by_key(|d| d.t)
        .unwrap_or(&t_start)
        .clone();
    let camp = out
        .spans
        .add("campaign", t_start.t, t_end.t, None, cid.clone());
    for o in &observed {
        let job = out
            .spans
            .add("job", o.job.t_submit.t, o.t_done.t, camp, o.job.id.clone());
        for (t, line) in &o.events {
            let state = line.split_whitespace().nth(2).unwrap_or("?");
            out.spans
                .add(state_span(state), *t, *t, job, o.job.id.clone());
        }
    }
    let executed: Vec<&Observed> = observed.iter().filter(|o| o.done).collect();
    for o in observed.iter().filter(|o| !o.done) {
        out.failed += 1;
        out.gate(format!("{} did not reach Done", o.job.id));
    }
    if measured {
        let steps = (executed.len() * sh.steps) as f64;
        s.campaign_msps.push(steps / t_end.secs_since(&t_start));
        s.raw_campaign_msps.push(steps / t_end.wall_since(&t_start));
        s.job_lat_ms.extend(
            executed
                .iter()
                .map(|o| o.t_done.secs_since(&o.job.t_submit) * 1e3),
        );
        s.measured_jobs
            .extend(executed.iter().map(|o| o.job.id.clone()));
        s.executed += executed.len();
        s.campaigns += 1;
    }

    // Untimed: result fingerprints of executed jobs and cache hits.
    for o in executed {
        let reply = a
            .roundtrip(&format!("RESULT {}", o.job.id))
            .map_err(|e| format!("RESULT: {e}"))?;
        match parse_result(&reply) {
            Some(r) => {
                s.results.insert(o.job.deck, r);
                s.pool.push(o.job.deck);
            }
            None => {
                out.failed += 1;
                out.gate(format!("{}: bad RESULT reply {reply:?}", o.job.id));
            }
        }
    }
    for (id, deck) in hits {
        let reply = a
            .roundtrip(&format!("RESULT {id}"))
            .map_err(|e| format!("RESULT: {e}"))?;
        let mut published = s.results.get(&deck).copied();
        if cfg.corrupt_reference {
            published = published.map(|(h, d)| (h ^ 1, d));
        }
        if parse_result(&reply) != published {
            out.failed += 1;
            out.gate(format!(
                "{id}: cache hit returned {reply:?}, published {published:x?}"
            ));
        }
    }
    Ok(())
}

/// Name of the zero-length span marking an observed state.
fn state_span(state: &str) -> &'static str {
    match state {
        "Queued" => "state:Queued",
        "Batched" => "state:Batched",
        "Running" => "state:Running",
        "Done" => "state:Done",
        "Failed" => "state:Failed",
        "Cancelled" => "state:Cancelled",
        _ => "state:other",
    }
}

/// Daemon counters read between two points of a daemon run.
#[derive(Default, Clone, Copy)]
struct Counters {
    appends: f64,
    fsyncs: f64,
    bytes: f64,
    hits: f64,
    misses: f64,
    batches: f64,
    members: f64,
}

fn counters(client: &mut Client) -> Result<Counters, String> {
    let text = client.metrics().map_err(|e| format!("METRICS: {e}"))?;
    let v = JsonValue::parse(&text).map_err(|e| format!("METRICS JSON: {e}"))?;
    let n = |obj: &str, key: &str| match v.get(obj).and_then(|o| o.get(key)) {
        Some(JsonValue::Num(x)) => *x,
        _ => 0.0,
    };
    let (mut batches, mut members) = (0.0, 0.0);
    if let Some(JsonValue::Obj(occ)) = v.get("batch_occupancy") {
        for (k, c) in occ {
            let width: f64 = k.trim_start_matches("k=").parse().unwrap_or(0.0);
            if let JsonValue::Num(c) = c {
                batches += c;
                members += width * c;
            }
        }
    }
    Ok(Counters {
        appends: n("journal", "appends"),
        fsyncs: n("journal", "fsyncs"),
        bytes: n("journal", "bytes"),
        hits: n("cache", "hits"),
        misses: n("cache", "misses"),
        batches,
        members,
    })
}

/// Bytes of regular files under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    let Ok(rd) = std::fs::read_dir(dir) else {
        return 0;
    };
    rd.flatten()
        .map(|e| {
            let p = e.path();
            if p.is_dir() {
                dir_bytes(&p)
            } else {
                e.metadata().map_or(0, |m| m.len())
            }
        })
        .sum()
}

/// What one daemon measured beyond its [`Samples`]: counters, scrapes,
/// queue waits, peak RSS and the kernel it chose.
struct DaemonEnd {
    s: Samples,
    before: Counters,
    after: Counters,
    prom_before: String,
    prom_after: String,
    queue_wait_ms: Vec<f64>,
    peak_rss_mib: f64,
    kernel: String,
    artifacts_dir: PathBuf,
    spawn_s: f64,
}

/// Spawn a measurement daemon, run the warm-up and measured campaigns for
/// `seconds`, collect its counters, and shut it down.
fn daemon_run(
    cfg: &Config,
    sh: Shape,
    index: u64,
    obs: bool,
    seconds: f64,
    out: &mut RunOutput,
) -> Result<DaemonEnd, String> {
    let dir = cfg.work_dir.join(format!("daemon-{index}"));
    let (daemon, spawn_s) = Daemon::spawn(&cfg.daemon, &dir, obs)?;
    let mut a = daemon.connect()?;
    let b = daemon.connect()?;
    let (to_watch, watch_rx) = mpsc::channel();
    let (watch_tx, from_watch) = mpsc::channel();
    let handle = std::thread::spawn(move || watcher(b, watch_rx, watch_tx));
    let mut gen = Decks {
        rng: Rng::new(cfg.seed, 2 + index),
        next_seed: 1000 * (1 + index),
    };
    let mut s = Samples::default();
    let run = (|| {
        campaign(
            cfg,
            sh,
            &mut gen,
            &mut s,
            &mut a,
            &to_watch,
            &from_watch,
            out,
            false,
        )?;
        let before = counters(&mut a)?;
        let prom_before = a.metrics_prom().map_err(|e| format!("METRICS_PROM: {e}"))?;
        let target = sh
            .min_campaigns
            .max((seconds * CAMPAIGNS_PER_S).round() as usize);
        let t0 = Instant::now();
        while s.campaigns < target {
            if t0.elapsed().as_secs_f64() > 4.0 * seconds + 30.0 {
                return Err(format!(
                    "only {} of {target} campaigns within {:.0} s",
                    s.campaigns,
                    4.0 * seconds + 30.0
                ));
            }
            campaign(
                cfg,
                sh,
                &mut gen,
                &mut s,
                &mut a,
                &to_watch,
                &from_watch,
                out,
                true,
            )?;
        }
        let after = counters(&mut a)?;
        let prom_after = a.metrics_prom().map_err(|e| format!("METRICS_PROM: {e}"))?;
        let measured: std::collections::BTreeSet<&str> =
            s.measured_jobs.iter().map(|j| j.as_str()).collect();
        let list = a.list().map_err(|e| format!("LIST: {e}"))?;
        let queue_wait_ms: Vec<f64> = list
            .iter()
            .filter(|l| {
                l.split_whitespace()
                    .next()
                    .is_some_and(|id| measured.contains(id))
            })
            .filter_map(|l| {
                l.split_whitespace()
                    .find_map(|t| t.strip_prefix("latency_ms="))
            })
            .filter_map(|v| v.parse().ok())
            .collect();
        let kernel = xg_obs::parse_prometheus(&prom_after)
            .unwrap_or_default()
            .iter()
            .find(|p| p.name == "xgyro_collision_kernel_info")
            .and_then(|p| p.label("kernel").map(str::to_string))
            .unwrap_or_default();
        Ok::<_, String>((
            before,
            after,
            prom_before,
            prom_after,
            queue_wait_ms,
            kernel,
        ))
    })();
    drop(to_watch);
    let _ = handle.join();
    drop(a);
    let peak_rss_mib = host::peak_rss_mib(Some(daemon.child.id()));
    let artifacts_dir = daemon.dir.join("artifacts");
    let (before, after, prom_before, prom_after, queue_wait_ms, kernel) = run?;
    daemon.shutdown()?;
    Ok(DaemonEnd {
        s,
        before,
        after,
        prom_before,
        prom_after,
        queue_wait_ms,
        peak_rss_mib,
        kernel,
        artifacts_dir,
        spawn_s,
    })
}

/// Check every executed deck's `RESULT` against the serial reference,
/// computed untimed on two threads after the daemon has exited.
fn verify(cfg: &Config, steps: usize, s: &Samples, out: &mut RunOutput) {
    let items: Vec<(usize, (u64, [u64; 4]))> = s.results.iter().map(|(d, r)| (*d, *r)).collect();
    let halves = items.split_at(items.len() / 2);
    let check = |part: &[(usize, (u64, [u64; 4]))]| {
        let mut errs = Vec::new();
        for (d, got) in part {
            let mut sim = serial_simulation(&s.decks[*d]);
            sim.run_steps(steps);
            let diagnostics = sim.diagnostics();
            let (_, mut h, diag) = result_summary(sim.h(), &diagnostics, steps);
            if cfg.corrupt_reference {
                h ^= 1;
            }
            if (h, diag) != *got {
                errs.push(format!(
                    "deck {d}: served h_hash {:#x} != reference {h:#x}",
                    got.0
                ));
            }
        }
        errs
    };
    let errors: Vec<String> = std::thread::scope(|scope| {
        let h1 = scope.spawn(|| check(halves.0));
        let mut e = check(halves.1);
        e.extend(h1.join().expect("reference thread panicked"));
        e
    });
    out.failed += errors.len() as u64;
    for e in errors {
        out.gate(e);
    }
}

/// Run `served_sweep`.
pub fn run(cfg: &Config) -> RunOutput {
    let mut out = RunOutput {
        spans: crate::spans::Spans::new(cfg.trace),
        ..RunOutput::default()
    };
    if let Err(e) = run_inner(cfg, &mut out) {
        out.failed += 1;
        out.gate(e);
    }
    out
}

fn run_inner(cfg: &Config, out: &mut RunOutput) -> Result<(), String> {
    let steal0 = host::steal_seconds();
    let sh = shape(cfg.tiny);
    std::fs::create_dir_all(&cfg.work_dir)
        .map_err(|e| format!("create {}: {e}", cfg.work_dir.display()))?;

    // setup_s: spawn → first PING reply, median of fresh daemons.
    let mut setups = Vec::new();
    for i in 0..SETUP_REPS {
        let t0 = Instant::now();
        let (d, setup) =
            Daemon::spawn(&cfg.daemon, &cfg.work_dir.join(format!("setup-{i}")), false)?;
        out.spans.add(
            "setup",
            t0,
            t0 + Duration::from_secs_f64(setup),
            None,
            format!("setup-{i}"),
        );
        setups.push(setup);
        d.shutdown()?;
    }

    let mut kernels = Vec::new();
    if !cfg.trace {
        // Several daemons per run: process-level effects (the collision
        // kernel autotuner's timing-based choice, allocator state) are
        // sampled within every run instead of between runs.
        let mut ends = Vec::new();
        for i in 0..DAEMONS {
            let e = daemon_run(cfg, sh, i, false, cfg.seconds / DAEMONS as f64, out)?;
            verify(cfg, sh.steps, &e.s, out);
            setups.push(e.spawn_s);
            kernels.push((format!("xgqueued-{i}"), e.kernel.clone()));
            ends.push(e);
        }
        let all = |f: fn(&Samples) -> &Vec<f64>| -> Vec<f64> {
            ends.iter().flat_map(|e| f(&e.s).iter().copied()).collect()
        };
        let (msps, raw, job, hit) = (
            all(|s| &s.campaign_msps),
            all(|s| &s.raw_campaign_msps),
            all(|s| &s.job_lat_ms),
            all(|s| &s.hit_lat_ms),
        );
        let rss: Vec<f64> = ends.iter().map(|e| e.peak_rss_mib).collect();
        out.metric("member_steps_per_s", median(&msps), "1/s");
        out.metric("setup_s", median(&setups), "s");
        out.metric("job_latency_p50_ms", percentile(&job, 50.0), "ms");
        out.metric("job_latency_p90_ms", percentile(&job, 90.0), "ms");
        out.metric("hit_latency_p50_ms", median(&hit), "ms");
        out.metric("peak_rss_mib", median(&rss), "MiB");
        out.report(
            "campaigns",
            ends.iter()
                .map(|e| e.s.campaigns)
                .sum::<usize>()
                .to_string(),
        );
        out.report("member_steps_per_s", summary_json(&msps));
        out.report("raw_member_steps_per_s", summary_json(&raw));
        out.report("job_latency_ms", summary_json(&job));
        out.report("hit_latency_ms", summary_json(&hit));
        out.report("setup_s", summary_json(&setups));
        out.report("peak_rss_mib_per_daemon", format!("{rss:?}"));
    } else {
        let u = daemon_run(cfg, sh, 0, false, 0.5 * cfg.seconds, out)?;
        verify(cfg, sh.steps, &u.s, out);
        let t = daemon_run(cfg, sh, 1, true, 0.5 * cfg.seconds, out)?;
        verify(cfg, sh.steps, &t.s, out);
        traced_layers(sh, &u, &t, out);
        kernels.push(("xgqueued (untraced)".to_string(), u.kernel));
        kernels.push(("xgqueued (traced)".to_string(), t.kernel));
    }
    kernels.push((
        "xgbench".into(),
        xg_obs::Registry::global()
            .collision_kernel()
            .unwrap_or_default(),
    ));
    out.report(
        "provenance",
        host::provenance_json(&kernels, host::steal_seconds() - steal0),
    );
    Ok(())
}

/// Per-layer metrics of the traced daemon `t` (`u` is the untraced one).
fn traced_layers(sh: Shape, u: &DaemonEnd, t: &DaemonEnd, out: &mut RunOutput) {
    let s = &t.s;
    let jobs = s.submitted.max(1) as f64;
    let member_steps = (s.executed * sh.steps) as f64;
    let d = |f: fn(&Counters) -> f64| f(&t.after) - f(&t.before);

    out.metric("wire.submit_rtt_ms_p50", median(&s.submit_rtt_ms), "ms");
    out.metric("journal.appends_per_job", d(|c| c.appends) / jobs, "count");
    out.metric("journal.fsyncs_per_job", d(|c| c.fsyncs) / jobs, "count");
    out.metric("journal.bytes_per_job", d(|c| c.bytes) / jobs, "B");
    out.metric("serve.queue_wait_ms_p50", median(&t.queue_wait_ms), "ms");
    let batches = d(|c| c.batches);
    out.metric(
        "serve.batches",
        batches / s.campaigns.max(1) as f64,
        "count",
    );
    out.metric("serve.occupancy_mean", d(|c| c.members) / batches, "count");
    let exec_ms = median(&s.exec_ms);
    out.metric("serve.exec_ms_per_batch_p50", exec_ms, "ms");
    let segments = sh.steps.div_ceil(CKPT_EVERY) as f64;
    out.metric("serve.segments_per_batch", segments, "count");
    let lookups = d(|c| c.hits) + d(|c| c.misses);
    out.metric("artifact.hit_ratio", d(|c| c.hits) / lookups, "ratio");
    let manifests = ArtifactStore::open(&t.artifacts_dir)
        .and_then(|st| st.manifests())
        .map_or(0, |m| m.len());
    out.metric(
        "artifact.store_bytes_per_job",
        dir_bytes(&t.artifacts_dir) as f64 / manifests.max(1) as f64,
        "B",
    );

    // World setup for the served shape, measured in this process (the
    // daemon builds its worlds through the same call).
    let mut probe = CgyroInput::test_small();
    probe.nu_ee = NU_EE[0];
    let ens = xgyro_core::gradient_sweep(&probe, K, ProcGrid::new(1, 1));
    xg_obs::set_enabled(true);
    xgyro_core::run_xgyro(&ens, 0);
    let mut walls = Vec::new();
    let mut last = None;
    for i in 0..SETUP_REPS {
        let (o, w) = out
            .spans
            .time("world_setup", None, format!("world_setup-{i}"), || {
                xgyro_core::run_xgyro(&ens, 0)
            });
        walls.push(w * 1e3);
        last = Some(o);
    }
    xg_obs::set_enabled(false);
    let world_setup_ms = median(&walls);
    out.metric("core.world_setup_ms", world_setup_ms, "ms");
    out.metric(
        "serve.rebuild_share_est",
        segments * world_setup_ms / exec_ms,
        "ratio",
    );

    let (before, after) = (
        layers::prom_phase_us(&t.prom_before),
        layers::prom_phase_us(&t.prom_after),
    );
    let phase: [(f64, f64); 3] =
        std::array::from_fn(|i| (after[i].0 - before[i].0, after[i].1 - before[i].1));
    layers::sim_metrics(out, phase, member_steps);
    let probe_out = last.expect("world setup probed");
    let cmat: Vec<u64> = probe_out
        .sims
        .iter()
        .flat_map(|s| s.cmat_bytes_per_rank.iter().copied())
        .collect();
    out.metric(
        "sim.cmat_bytes_per_rank",
        cmat.iter().copied().max().unwrap_or(0) as f64,
        "B",
    );

    // Communication traces of the measured batches, as published by the
    // daemon next to each result.
    let (traces, trace_steps) = published_traces(&t.artifacts_dir, s, sh.steps);
    if trace_steps > 0.0 {
        layers::comm_metrics(out, &traces, trace_steps);
        layers::model_metrics(out, &traces, trace_steps);
    }
    let coll_compute_us = (phase[1].0 - phase[1].1) / member_steps;
    layers::kernel_metrics(
        out,
        &probe,
        cmat.iter().sum::<u64>() as f64,
        K,
        coll_compute_us,
    );
    let overhead = median(&u.s.campaign_msps) / median(&s.campaign_msps);
    out.metric("obs.overhead_ratio", overhead, "ratio");
    layers::fill_absent(out);

    out.report(
        "untraced_member_steps_per_s",
        summary_json(&u.s.campaign_msps),
    );
    out.report("traced_member_steps_per_s", summary_json(&s.campaign_msps));
    out.report(
        "campaigns",
        format!(
            "{{\"untraced\": {}, \"traced\": {}}}",
            u.s.campaigns, s.campaigns
        ),
    );
    out.report("exec_ms_per_batch", summary_json(&s.exec_ms));
    out.report(
        "rebuild_share_note",
        jstr("estimated: segments x core.world_setup_ms / serve.exec_ms_per_batch_p50"),
    );
}

/// Per-rank traces of up to six measured batches, read back from the
/// artifact store (each batch publishes its segments' traces once), plus
/// the member-steps they cover.
fn published_traces(dir: &Path, s: &Samples, steps: usize) -> (Vec<Vec<xg_comm::OpRecord>>, f64) {
    let Ok(store) = ArtifactStore::open(dir) else {
        return (Vec::new(), 0.0);
    };
    let mut per_rank: Vec<Vec<xg_comm::OpRecord>> = vec![Vec::new(); K];
    let mut seen = std::collections::BTreeSet::new();
    let mut member_steps = 0.0;
    for d in s.pool.iter().rev() {
        if seen.len() >= 6 {
            break;
        }
        let hash = xg_artifact::deck_hash(&s.decks[*d], steps);
        let Some(obj) = store
            .lookup(hash)
            .ok()
            .flatten()
            .and_then(|m| m.trace_object)
        else {
            continue;
        };
        if !seen.insert(obj.0) {
            continue;
        }
        let Some(traces) = store
            .get_object(obj)
            .ok()
            .and_then(|b| String::from_utf8(b).ok())
            .and_then(|t| xg_comm::traces_from_csv(&t).ok())
        else {
            continue;
        };
        // Segments are appended rank-major per segment: entry i is world
        // rank i % K.
        for (i, t) in traces.into_iter().enumerate() {
            per_rank[i % K].extend(t);
        }
        member_steps += (K * steps) as f64;
    }
    (per_rank, member_steps)
}
