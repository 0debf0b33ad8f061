//! The planner workloads, `plan-hot` and `plan-cold`.
//!
//! Both drive an in-process `ftsim_serve::Server` over TCP with a closed
//! loop of [`CONNECTIONS`] client connections, one request per write, so
//! every latency is a true round trip. `plan-hot` draws from a small
//! universe warmed into the scenario cache during set-up; `plan-cold` draws
//! from a seeded generator whose keys almost never repeat.
//!
//! The traced run replays the requests the clients sent through the calls
//! the server makes — `ScenarioSpec::parse_str`, `canonical_key`/`hash`,
//! `ScenarioCache::get_or_compute`, `Planner::answer` — with spans around
//! each, then probes the simulator-side layers at the same inputs with a
//! benchmark-owned pool.

use std::collections::{HashMap, HashSet};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ftsim_cost::DistributedPlan;
use ftsim_gpu::CostModel;
use ftsim_model::MemoryModel;
use ftsim_serve::{Planner, QueryKind, ScenarioCache, ScenarioSpec, ServeConfig, Server};
use ftsim_sim::StepSimulator;

use crate::gen::{self, Rng};
use crate::report::Report;
use crate::stats::{central_mean, median, quantile_sorted};
use crate::trace::Tracer;
use crate::SETUP_REPS;

/// Client connections, one thread each: the host's core count.
const CONNECTIONS: usize = 2;
/// Cold requests sent during set-up to finish lazy initialization.
const COLD_WARMUP: usize = 256;
/// Seed salt of the cold warm-up stream, disjoint from the timed streams.
const WARMUP_SALT: u64 = 0x5e7u64 << 40;
/// Equal parts of the timed window; the end-to-end metrics are central
/// means over them.
const SUB_WINDOWS: usize = 20;
/// Most requests the traced run replays in process.
const REPLAY_CAP: usize = 50_000;
/// Batch sizes a sweep answer enumerates at most (the planner's limit).
const SWEEP_MAX_POINTS: usize = 16;

/// Which request universe a run draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Universe {
    /// 360 keys, warmed into the cache.
    Hot,
    /// Seeded keys that almost never repeat.
    Cold,
}

/// What a plan run draws its requests from, and where it leaves files.
struct Workload {
    universe: Universe,
    seed: u64,
    hot: Arc<Vec<String>>,
    out_dir: PathBuf,
}

impl Workload {
    /// The request stream of client connection `worker`.
    fn stream(&self, worker: usize) -> Stream {
        Stream {
            universe: self.universe,
            rng: Rng::for_worker(self.seed, worker),
            hot: Arc::clone(&self.hot),
        }
    }

    /// The requests set-up sends: hot, the whole universe; cold, a short
    /// stream disjoint from the timed one.
    fn warmup_lines(&self) -> Vec<String> {
        match self.universe {
            Universe::Hot => self.hot.to_vec(),
            Universe::Cold => {
                let mut rng = Rng::new(self.seed ^ WARMUP_SALT);
                (0..COLD_WARMUP).map(|_| gen::next_cold(&mut rng)).collect()
            }
        }
    }

    fn spans_path(&self, phase: &str) -> PathBuf {
        let name = format!("spans-{:?}-{phase}.jsonl", self.universe).to_lowercase();
        self.out_dir.join(name)
    }
}

/// The request stream of one client connection.
struct Stream {
    universe: Universe,
    rng: Rng,
    hot: Arc<Vec<String>>,
}

impl Stream {
    /// The next request: its hot-universe index (hot only) and its line.
    fn next(&mut self) -> (usize, String) {
        match self.universe {
            Universe::Hot => {
                let idx = gen::next_hot(&mut self.rng);
                (idx, self.hot[idx].clone())
            }
            Universe::Cold => (0, gen::next_cold(&mut self.rng)),
        }
    }
}

/// One client connection speaking the line protocol.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    out: String,
}

impl Conn {
    fn connect(server: &Server) -> std::io::Result<Conn> {
        let writer = TcpStream::connect(server.local_addr())?;
        writer.set_nodelay(true)?;
        Ok(Conn {
            reader: BufReader::new(writer.try_clone()?),
            writer,
            out: String::new(),
        })
    }

    /// Sends `lines` in one write and reads one reply per line into
    /// `replies` (newlines stripped).
    fn exchange(&mut self, lines: &[String], replies: &mut Vec<String>) -> std::io::Result<()> {
        self.out.clear();
        for line in lines {
            self.out.push_str(line);
            self.out.push('\n');
        }
        self.writer.write_all(self.out.as_bytes())?;
        for _ in lines {
            let mut reply = String::new();
            self.read_reply(&mut reply)?;
            replies.push(reply);
        }
        Ok(())
    }

    /// One request, one reply: the closed-loop step.
    fn roundtrip(&mut self, line: &str, reply: &mut String) -> std::io::Result<()> {
        self.out.clear();
        self.out.push_str(line);
        self.out.push('\n');
        self.writer.write_all(self.out.as_bytes())?;
        self.read_reply(reply)
    }

    fn read_reply(&mut self, reply: &mut String) -> std::io::Result<()> {
        reply.clear();
        if self.reader.read_line(reply)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        if reply.ends_with('\n') {
            reply.pop();
        }
        Ok(())
    }
}

fn is_domain_error(reply: &str) -> bool {
    reply.starts_with(r#"{"ok":false"#)
}

/// A started, warmed server, ready for the window.
struct Session {
    server: Server,
    /// Hot only: the warm-up reply of every universe line.
    reference: Vec<String>,
}

impl Session {
    /// Starts a server and warms it over one connection.
    fn start(workload: &Workload) -> std::io::Result<Session> {
        let server = Server::start(ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            ..ServeConfig::default()
        })?;
        let mut replies = Vec::new();
        Conn::connect(&server)?.exchange(&workload.warmup_lines(), &mut replies)?;
        if workload.universe == Universe::Cold {
            replies.clear();
        }
        Ok(Session {
            server,
            reference: replies,
        })
    }
}

/// What one client saw during the timed window.
#[derive(Default)]
struct WorkerOut {
    /// Round trips in ns, by sub-window.
    rtts_ns: Vec<Vec<u64>>,
    reply_bytes: u64,
    domain_errors: u64,
    /// Hot: replies that differed from the warm-up reply of their line.
    mismatches: Vec<String>,
    mismatch_count: u64,
    /// Hot: requests per universe line.
    per_line: Vec<u64>,
    io_error: Option<String>,
}

fn spill_path(dir: &Path, worker: usize) -> PathBuf {
    dir.join(format!("replies-{worker}.txt"))
}

/// One client: its request stream, reply spill (cold) and observations,
/// carried across the sub-windows.
struct Client {
    stream: Stream,
    spill: Option<BufWriter<std::fs::File>>,
    out: WorkerOut,
}

impl Client {
    fn new(
        stream: Stream,
        reference: &[String],
        spill: Option<PathBuf>,
    ) -> std::io::Result<Client> {
        let spill = match spill {
            Some(path) => Some(BufWriter::with_capacity(
                1 << 20,
                std::fs::File::create(path)?,
            )),
            None => None,
        };
        Ok(Client {
            stream,
            spill,
            out: WorkerOut {
                rtts_ns: vec![Vec::new(); SUB_WINDOWS],
                per_line: vec![0; reference.len()],
                ..WorkerOut::default()
            },
        })
    }

    /// Closed loop on `conn` until `deadline`, recording into sub-window `sub`.
    fn run(
        &mut self,
        conn: &mut Conn,
        reference: &[String],
        sub: usize,
        deadline: Instant,
        completed: &AtomicU64,
    ) {
        let out = &mut self.out;
        let mut reply = String::new();
        while out.io_error.is_none() && Instant::now() < deadline {
            let (idx, line) = self.stream.next();
            let sent = Instant::now();
            if let Err(e) = conn.roundtrip(&line, &mut reply) {
                out.io_error = Some(format!("request: {e}"));
                break;
            }
            out.rtts_ns[sub].push(sent.elapsed().as_nanos() as u64);
            completed.fetch_add(1, Ordering::Relaxed);
            out.reply_bytes += reply.len() as u64 + 1;
            out.domain_errors += u64::from(is_domain_error(&reply));
            if let Some(file) = self.spill.as_mut() {
                if let Err(e) = writeln!(file, "{reply}") {
                    out.io_error = Some(format!("reply spill: {e}"));
                }
            } else {
                out.per_line[idx] += 1;
                if reply != reference[idx] {
                    out.mismatch_count += 1;
                    if out.mismatches.len() < 4 {
                        out.mismatches.push(format!("{line} -> {reply}"));
                    }
                }
            }
        }
    }

    /// Flushes the spill and hands back the observations.
    fn finish(mut self) -> WorkerOut {
        if let Some(Err(e)) = self.spill.take().map(|mut f| f.flush()) {
            self.out.io_error = Some(format!("reply spill: {e}"));
        }
        self.out
    }
}

/// One sub-window of the timed window.
struct SubWindow {
    seconds: f64,
    cpu_us: f64,
    /// Round trips of the requests sent in it, µs, sorted.
    rtts_us: Vec<f64>,
}

/// The TCP phase's results.
struct Window {
    subs: Vec<SubWindow>,
    peak_rss_mb: f64,
    requests: u64,
    reply_bytes: u64,
    domain_errors: u64,
    cache: [u64; 4],
    /// (completed requests, RSS KiB) after the first sub-window and at the
    /// end of the window.
    rss_points: [(u64, f64); 2],
    /// Requests each worker sent, in order.
    sent: Vec<usize>,
}

impl Window {
    /// Central mean over the sub-windows of `f`.
    fn across(&self, f: impl Fn(&SubWindow) -> f64) -> f64 {
        central_mean(&self.subs.iter().map(f).collect::<Vec<_>>())
    }

    fn mean_rtt_us(&self) -> f64 {
        let sum: f64 = self.subs.iter().flat_map(|s| &s.rtts_us).sum();
        sum / self.requests.max(1) as f64
    }
}

/// Runs the timed window on `session` and the correctness gate after it.
///
/// Each sub-window runs on fresh client connections and threads, so the
/// server spawns fresh connection threads too: the scheduler places the
/// threads anew every sub-window, and one unlucky placement or burst of
/// outside load moves a single sub-window rather than the whole run.
fn measure(workload: &Workload, seconds: f64, session: Session, report: &mut Report) -> Window {
    let Session {
        mut server,
        reference,
    } = session;
    let completed = AtomicU64::new(0);
    let before = server.cache_stats();
    let sub = Duration::from_secs_f64(seconds / SUB_WINDOWS as f64);
    let mut clients = Vec::with_capacity(CONNECTIONS);
    for w in 0..CONNECTIONS {
        let spill = (workload.universe == Universe::Cold).then(|| spill_path(&workload.out_dir, w));
        match Client::new(workload.stream(w), &reference, spill) {
            Ok(client) => clients.push(client),
            Err(e) => report.mismatches.push(format!("reply spill: {e}")),
        }
    }
    let mut timing = Vec::with_capacity(SUB_WINDOWS);
    let mut first_point = (0, 0.0);
    for k in 0..SUB_WINDOWS {
        let conns: std::io::Result<Vec<Conn>> =
            clients.iter().map(|_| Conn::connect(&server)).collect();
        let mut conns = match conns {
            Ok(conns) => conns,
            Err(e) => {
                report.mismatches.push(format!("connect: {e}"));
                break;
            }
        };
        let cpu_before = crate::sys::cpu_time_us();
        let started = Instant::now();
        let deadline = started + sub;
        std::thread::scope(|scope| {
            for (client, conn) in clients.iter_mut().zip(conns.iter_mut()) {
                let (reference, completed) = (&reference, &completed);
                scope.spawn(move || client.run(conn, reference, k, deadline, completed));
            }
        });
        timing.push((
            started.elapsed().as_secs_f64(),
            crate::sys::cpu_time_us() - cpu_before,
        ));
        if k == 0 {
            first_point = (completed.load(Ordering::Relaxed), crate::sys::rss_kb());
        }
    }
    let last_point = (completed.load(Ordering::Relaxed), crate::sys::rss_kb());
    let peak_rss_mb = crate::sys::peak_rss_mb();
    let after = server.cache_stats();
    server.shutdown();
    drop(server);
    let outs: Vec<WorkerOut> = clients.into_iter().map(Client::finish).collect();

    let mut subs: Vec<SubWindow> = timing
        .into_iter()
        .map(|(seconds, cpu_us)| SubWindow {
            seconds,
            cpu_us,
            rtts_us: Vec::new(),
        })
        .collect();
    let mut window = Window {
        subs: Vec::new(),
        peak_rss_mb,
        requests: 0,
        reply_bytes: 0,
        domain_errors: 0,
        cache: [
            after.hits - before.hits,
            after.misses - before.misses,
            after.evictions - before.evictions,
            after.coalesced - before.coalesced,
        ],
        rss_points: [first_point, last_point],
        sent: Vec::new(),
    };
    let mut per_line = vec![0u64; reference.len()];
    for out in outs {
        if let Some(e) = out.io_error {
            report.mismatches.push(e);
        }
        report.failed += out.mismatch_count;
        report.mismatches.extend(out.mismatches);
        let sent: usize = out.rtts_ns.iter().map(Vec::len).sum();
        window.sent.push(sent);
        window.requests += sent as u64;
        for (sub, rtts) in subs.iter_mut().zip(out.rtts_ns) {
            sub.rtts_us
                .extend(rtts.into_iter().map(|ns| ns as f64 / 1e3));
        }
        window.reply_bytes += out.reply_bytes;
        window.domain_errors += out.domain_errors;
        for (total, n) in per_line.iter_mut().zip(out.per_line) {
            *total += n;
        }
    }
    for sub in &mut subs {
        sub.rtts_us.sort_by(f64::total_cmp);
    }
    window.subs = subs;
    report.attempted += window.requests;
    match workload.universe {
        Universe::Hot => check_hot(&workload.hot, &reference, &per_line, report),
        Universe::Cold => check_cold(workload, &window.sent, report),
    }
    window
}

/// What a planner of its own answers to `line`.
fn fresh_answer(planner: &Planner, line: &str) -> String {
    match ScenarioSpec::parse_str(line) {
        Ok(spec) => planner.answer(&spec),
        Err(e) => format!("parse error: {e}"),
    }
}

/// Correctness gate, hot: every reply already matched its line's warm-up
/// reply byte for byte; each warm-up reply must match a fresh planner.
fn check_hot(lines: &[String], reference: &[String], per_line: &[u64], report: &mut Report) {
    let planner = Planner::new();
    for (idx, (line, reply)) in lines.iter().zip(reference).enumerate() {
        let fresh = fresh_answer(&planner, line);
        if fresh != *reply {
            report.failed += per_line.get(idx).copied().unwrap_or(0).max(1);
            report
                .mismatches
                .push(format!("{line}: served {reply} but planner gives {fresh}"));
        }
    }
}

/// Correctness gate, cold: regenerate each connection's stream and compare
/// every spilled reply with a fresh planner's answer, one thread per
/// connection over one shared planner.
fn check_cold(workload: &Workload, sent: &[usize], report: &mut Report) {
    let planner = Planner::new();
    let results: Vec<(u64, Vec<String>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = sent
            .iter()
            .enumerate()
            .map(|(w, &count)| {
                let planner = &planner;
                scope.spawn(move || {
                    let path = spill_path(&workload.out_dir, w);
                    let mut rng = Rng::for_worker(workload.seed, w);
                    let replies: Vec<String> = match std::fs::read_to_string(&path) {
                        Ok(text) => text.lines().map(str::to_string).collect(),
                        Err(e) => {
                            return (
                                count as u64,
                                vec![format!("reading {}: {e}", path.display())],
                            )
                        }
                    };
                    let _ = std::fs::remove_file(&path);
                    check_replies(
                        planner,
                        (0..count).map(|_| gen::next_cold(&mut rng)),
                        &replies,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("checker panicked"))
            .collect()
    });
    for (failed, notes) in results {
        report.failed += failed;
        report.mismatches.extend(notes);
    }
}

/// Compares each reply with `planner`'s answer to the matching line; returns
/// the mismatch count and the first few mismatches. A reply without a
/// request, or a request without a reply, is a mismatch too.
fn check_replies(
    planner: &Planner,
    mut lines: impl Iterator<Item = String>,
    replies: &[String],
) -> (u64, Vec<String>) {
    let mut failed = 0u64;
    let mut notes = Vec::new();
    for reply in replies {
        let Some(line) = lines.next() else {
            failed += 1;
            notes.push(format!("more replies than requests: {reply}"));
            break;
        };
        let fresh = fresh_answer(planner, &line);
        if fresh != *reply {
            failed += 1;
            if notes.len() < 4 {
                notes.push(format!("{line}: served {reply} but planner gives {fresh}"));
            }
        }
    }
    if let Some(line) = lines.next() {
        failed += 1;
        notes.push(format!("no reply recorded for {line}"));
    }
    (failed, notes)
}

/// Runs one plan workload and fills `report`.
pub fn run(
    universe: Universe,
    seed: u64,
    seconds: f64,
    traced: bool,
    out_dir: &Path,
    report: &mut Report,
) {
    let workload = Workload {
        universe,
        seed,
        hot: Arc::new(gen::hot_universe()),
        out_dir: out_dir.to_path_buf(),
    };
    if let Err(e) = std::fs::create_dir_all(out_dir) {
        report
            .mismatches
            .push(format!("creating {}: {e}", out_dir.display()));
        return;
    }
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut session = None;
    for rep in 0..SETUP_REPS {
        let started = Instant::now();
        match Session::start(&workload) {
            Ok(mut s) => {
                setups.push(started.elapsed().as_secs_f64());
                if rep + 1 < SETUP_REPS {
                    s.server.shutdown();
                } else {
                    session = Some(s);
                }
            }
            Err(e) => {
                report.mismatches.push(format!("set-up: {e}"));
                return;
            }
        }
    }
    let session = session.expect("at least one set-up");
    // The traced run splits its time between the TCP window and the replay.
    let tcp_seconds = if traced { seconds / 2.0 } else { seconds };
    let window = measure(&workload, tcp_seconds, session, report);
    let requests = window.requests.max(1);
    let n = window.requests;
    let per_op = |s: &SubWindow| s.rtts_us.len().max(1) as f64;
    report.set("setup_s", median(&setups), SETUP_REPS as u64);
    report.extra_metric(
        "ops_per_s",
        window.across(|s| s.rtts_us.len() as f64 / s.seconds),
        "1/s",
        n,
    );
    report.set(
        "latency_p50_us",
        window.across(|s| quantile_sorted(&s.rtts_us, 0.5)),
        n,
    );
    for (name, q) in [("latency_p90_us", 0.9), ("latency_p99_us", 0.99)] {
        let tail = window.across(|s| quantile_sorted(&s.rtts_us, q));
        report.extra_metric(name, tail, "us", n);
    }
    report.set("cpu_us_per_op", window.across(|s| s.cpu_us / per_op(s)), n);
    report.set("peak_rss_mb", window.peak_rss_mb, 1);
    let [hits, misses, evictions, coalesced] = window.cache;
    let lookups = hits + misses + coalesced;
    report.notes.push(format!(
        "window: {n} requests over {CONNECTIONS} connections in {SUB_WINDOWS} sub-windows (ops/s {}); cache hits {hits}, misses {misses}, evictions {evictions}, coalesced {coalesced}",
        window
            .subs
            .iter()
            .map(|s| format!("{:.0}", s.rtts_us.len() as f64 / s.seconds))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    let hit_ratio = hits as f64 / lookups.max(1) as f64;
    // The workloads are only meaningful while they exercise what they claim.
    match universe {
        Universe::Hot if misses > 0 || hit_ratio < 0.99 => report.mismatches.push(format!(
            "plan-hot reached the engine: {misses} misses, hit ratio {hit_ratio}"
        )),
        Universe::Cold if hit_ratio > 0.05 => report
            .mismatches
            .push(format!("plan-cold hit the cache: hit ratio {hit_ratio}")),
        _ => {}
    }
    if !traced {
        return;
    }
    report.set(
        "server.bytes_per_reply",
        window.reply_bytes as f64 / requests as f64,
        n,
    );
    report.set("cache.hits", hits as f64, 1);
    report.set("cache.misses", misses as f64, 1);
    report.set("cache.evictions", evictions as f64, 1);
    report.set("cache.coalesced", coalesced as f64, 1);
    report.set("cache.lookups", lookups as f64, 1);
    report.set("cache.hit_ratio", hit_ratio, lookups);
    report.set("engine.domain_errors", window.domain_errors as f64, n);
    let [(req0, rss0), (req1, rss1)] = window.rss_points;
    report.set("rss.first_mb", rss0 / 1024.0, 1);
    report.set("rss.last_mb", rss1 / 1024.0, 1);
    report.set(
        "rss_growth_kb_per_kreq",
        (rss1 - rss0) / (req1.saturating_sub(req0)).max(1) as f64 * 1000.0,
        req1.saturating_sub(req0),
    );
    traced_replay(&workload, &window, report);
}

/// The requests the clients sent, interleaved connection by connection in
/// send order, capped at [`REPLAY_CAP`].
fn replay_lines(workload: &Workload, sent: &[usize]) -> Vec<String> {
    let mut streams: Vec<(Stream, usize)> = sent
        .iter()
        .enumerate()
        .map(|(w, &count)| (workload.stream(w), count))
        .collect();
    let mut lines = Vec::new();
    while lines.len() < REPLAY_CAP && streams.iter().any(|(_, left)| *left > 0) {
        for (stream, left) in streams.iter_mut() {
            if *left > 0 && lines.len() < REPLAY_CAP {
                *left -= 1;
                lines.push(stream.next().1);
            }
        }
    }
    lines
}

/// A fresh cache and planner, warmed the way the server was in set-up.
fn warm_state(workload: &Workload) -> (ScenarioCache, Planner) {
    let config = ServeConfig::default();
    let cache = ScenarioCache::new(config.cache_capacity, config.shards);
    let planner = Planner::new();
    for line in &workload.warmup_lines() {
        let spec = ScenarioSpec::parse_str(line).expect("generated lines parse");
        cache.get_or_compute(&spec.canonical_key(), spec.hash(), || planner.answer(&spec));
    }
    (cache, planner)
}

/// The server's per-request path without the socket, untraced.
fn replay_untraced(lines: &[String], cache: &ScenarioCache, planner: &Planner) -> f64 {
    let started = Instant::now();
    for line in lines {
        let Ok(spec) = ScenarioSpec::parse_str(line) else {
            continue;
        };
        let key = spec.canonical_key();
        let answer = cache.get_or_compute(&key, spec.hash(), || planner.answer(&spec));
        std::hint::black_box(answer.to_string());
    }
    started.elapsed().as_secs_f64()
}

fn answer_span(query: QueryKind) -> &'static str {
    match query {
        QueryKind::Plan => "engine.answer.plan",
        QueryKind::Estimate => "engine.answer.estimate",
        QueryKind::Sweep => "engine.answer.sweep",
    }
}

/// The traced replay of the window's requests and the layer probes; fills
/// the per-layer metrics.
fn traced_replay(workload: &Workload, window: &Window, report: &mut Report) {
    let lines = &replay_lines(workload, &window.sent);
    let (cache, planner) = warm_state(workload);
    let untraced_s = replay_untraced(lines, &cache, &planner);
    drop((cache, planner));

    let (cache, planner) = warm_state(workload);
    let mut tracer = Tracer::new();
    let mut misses: Vec<(u64, ScenarioSpec)> = Vec::new();
    let mut keys: HashSet<String> = HashSet::new();
    let mut rejected = 0u64;
    let started = tracer.now_ns();
    for (req, line) in lines.iter().enumerate() {
        let req = req as u64;
        let Ok(spec) = tracer.span("spec.parse", req, |_| ScenarioSpec::parse_str(line)) else {
            rejected += 1;
            continue;
        };
        let (key, hash) = tracer.span("spec.key", req, |_| (spec.canonical_key(), spec.hash()));
        let mut computed = false;
        let answer = tracer.span("cache.get_or_compute", req, |t| {
            cache.get_or_compute(&key, hash, || {
                computed = true;
                t.span(answer_span(spec.query), req, |_| planner.answer(&spec))
            })
        });
        let text = tracer.span("server.reply", req, |_| answer.to_string());
        std::hint::black_box(text);
        if computed {
            misses.push((req, spec));
        }
        keys.insert(key);
    }
    let end_to_end_ns = tracer.now_ns() - started;
    let traced_s = end_to_end_ns as f64 / 1e9;
    let unattributed_ns = end_to_end_ns - tracer.top_level_ns();
    let replayed = lines.len().max(1) as f64;
    let times = tracer.self_times();
    let self_time = |name: &str| times.get(name).cloned().unwrap_or_default();
    let r = lines.len() as u64;
    let in_process_us = tracer.top_level_ns() as f64 / 1e3 / replayed;
    report.set(
        "server.transport_self_us",
        window.mean_rtt_us() - in_process_us,
        r,
    );
    report.set(
        "server.unattributed_us",
        unattributed_ns as f64 / 1e3 / replayed,
        r,
    );
    report.set("trace.end_to_end_s", traced_s, r);
    report.set(
        "trace.unattributed_share",
        unattributed_ns as f64 / end_to_end_ns.max(1) as f64,
        r,
    );
    report.set(
        "trace.overhead_share",
        (traced_s - untraced_s) / untraced_s,
        r,
    );
    let parse = self_time("spec.parse");
    report.set("spec.parse_us.p50", parse.quantile_us(0.5), r);
    report.set("spec.parse_us.p99", parse.quantile_us(0.99), r);
    report.set("spec.rejected", rejected as f64, r);
    let key = self_time("spec.key");
    report.set("spec.key_us.p50", key.quantile_us(0.5), r);
    report.set("spec.key_us.p99", key.quantile_us(0.99), r);
    report.set(
        "cache.self_us",
        self_time("cache.get_or_compute").mean_us(),
        r,
    );
    for (span, p50, p99) in [
        (
            "engine.answer.plan",
            "engine.answer_us.plan.p50",
            "engine.answer_us.plan.p99",
        ),
        (
            "engine.answer.estimate",
            "engine.answer_us.estimate.p50",
            "engine.answer_us.estimate.p99",
        ),
        (
            "engine.answer.sweep",
            "engine.answer_us.sweep.p50",
            "engine.answer_us.sweep.p99",
        ),
    ] {
        let t = self_time(span);
        let count = t.samples_ns.len() as u64;
        report.set(p50, t.quantile_us(0.5), count);
        report.set(p99, t.quantile_us(0.99), count);
    }
    report.set("engine.simulators", planner.simulator_count() as f64, 1);
    report.set("engine.plans", planner.plan_count() as f64, 1);
    report.set("cold.distinct_keys", keys.len() as f64, r);
    report.set(
        "cold.working_set_ratio",
        keys.len() as f64 / ServeConfig::default().cache_capacity as f64,
        r,
    );
    let write = tracer.write_jsonl(&workload.spans_path("replay"));
    drop((cache, planner, tracer));

    let first_point = window.rss_points[0].0;
    let mut probe = Probe::default();
    let mut tracer = Tracer::new();
    for (req, spec) in &misses {
        if *req >= first_point && probe.entries_first.is_none() {
            probe.entries_first = Some(probe.trace_stats().2);
        }
        probe.request(spec, &mut tracer, *req);
    }
    probe.report(&tracer, misses.len() as u64, report);
    let probe_write = tracer.write_jsonl(&workload.spans_path("probe"));
    for result in [write, probe_write] {
        if let Err(e) = result {
            report.notes.push(format!("span file not written: {e}"));
        }
    }
}

/// The benchmark-owned simulator and plan pool the probes run on, keyed the
/// way the planner pools its own, so its trace caches see the same calls as
/// the replayed planner's after its warm-up (the pool itself starts empty).
#[derive(Default)]
struct Probe {
    sims: HashMap<String, Arc<StepSimulator>>,
    plans: HashMap<String, Arc<DistributedPlan>>,
    simulate_calls: u64,
    simulating_requests: u64,
    reused_requests: u64,
    kernels_per_step: u64,
    unique_kernels: u64,
    kernels_priced: u64,
    multi_gpu: u64,
    entries_first: Option<usize>,
}

impl Probe {
    fn simulator(&mut self, spec: &ScenarioSpec) -> Arc<StepSimulator> {
        let key = format!(
            "{}|{}|{}|{}",
            spec.model, spec.recipe, spec.gpu, spec.gpu_mem_gb
        );
        Arc::clone(self.sims.entry(key).or_insert_with(|| {
            Arc::new(StepSimulator::new(
                spec.model_config(),
                spec.finetune_config(),
                CostModel::new(spec.gpu_spec()),
            ))
        }))
    }

    fn plan(&mut self, spec: &ScenarioSpec) -> Arc<DistributedPlan> {
        let key = format!("{}|{}", spec.model, spec.recipe);
        Arc::clone(self.plans.entry(key).or_insert_with(|| {
            Arc::new(DistributedPlan::new(
                spec.model_config(),
                spec.finetune_config(),
            ))
        }))
    }

    /// (hits, misses, entries) summed over the single-GPU simulators.
    fn trace_stats(&self) -> (u64, u64, usize) {
        self.sims.values().fold((0, 0, 0), |(h, m, e), sim| {
            let s = sim.cache_stats();
            (h + s.hits, m + s.misses, e + s.entries)
        })
    }

    /// Times the simulator-side calls the planner makes for `spec`, in the
    /// planner's order and with its early exits.
    fn request(&mut self, spec: &ScenarioSpec, t: &mut Tracer, req: u64) {
        let multi = spec.gpus > 1 && spec.query != QueryKind::Sweep;
        self.multi_gpu += u64::from(multi);
        if multi {
            let plan = self.plan(spec);
            let topo = spec.topology();
            let max = t.span("distributed.max_batch", req, |_| {
                plan.max_batch(&topo, spec.parallelism, spec.seq_len)
            });
            let batch = if spec.batch > 0 { spec.batch } else { max };
            if spec.query == QueryKind::Estimate
                && max > 0
                && batch <= max
                && spec.usd_per_hour().is_some()
            {
                let step = t.span("distributed.step", req, |_| {
                    plan.simulate_step(&topo, spec.parallelism, batch, spec.seq_len)
                });
                std::hint::black_box(step);
            }
            return;
        }
        let model = spec.model_config();
        let ft = spec.finetune_config();
        let gpu = spec.gpu_spec();
        let max = t.span("memory.max_batch", req, |_| {
            MemoryModel::new(&model, &ft).max_batch_size(&gpu, spec.seq_len)
        });
        let batch = if spec.batch > 0 { spec.batch } else { max };
        let batches: Vec<usize> = match spec.query {
            QueryKind::Plan => return,
            QueryKind::Estimate if max == 0 || batch > max || spec.usd_per_hour().is_none() => {
                return
            }
            QueryKind::Estimate => vec![batch],
            QueryKind::Sweep if max == 0 => return,
            QueryKind::Sweep => sweep_batches(max),
        };
        let sim = self.simulator(spec);
        let misses_before = sim.cache_stats().misses;
        for b in batches {
            let trace = t.span("step.simulate", req, |_| sim.simulate_step(b, spec.seq_len));
            self.simulate_calls += 1;
            self.kernels_per_step += trace.kernel_count() as u64;
            self.unique_kernels += trace.unique_kernel_count() as u64;
            let cost = sim.cost_model();
            let priced = t.span("cost.kernel_cost", req, |_| {
                let mut n = 0u64;
                for segment in trace.segments() {
                    for record in segment.records() {
                        std::hint::black_box(cost.kernel_cost(std::hint::black_box(&record.desc)));
                        n += 1;
                    }
                }
                n
            });
            self.kernels_priced += priced;
        }
        self.simulating_requests += 1;
        self.reused_requests += u64::from(sim.cache_stats().misses == misses_before);
    }

    fn report(&self, tracer: &Tracer, engine_calls: u64, report: &mut Report) {
        let times = tracer.self_times();
        let mean = |name: &str| times.get(name).map_or(0.0, |t| t.mean_us());
        let count = |name: &str| times.get(name).map_or(0, |t| t.samples_ns.len() as u64);
        let calls = self.simulate_calls.max(1) as f64;
        let (hits, misses, entries) = self.trace_stats();
        report.set(
            "step.simulate_us",
            mean("step.simulate"),
            self.simulate_calls,
        );
        report.set(
            "step.calls_per_req",
            self.simulate_calls as f64 / self.simulating_requests.max(1) as f64,
            self.simulating_requests,
        );
        report.set("step.trace_hits", hits as f64, 1);
        report.set("step.trace_misses", misses as f64, 1);
        report.set(
            "step.trace_entries_first",
            self.entries_first.unwrap_or(entries) as f64,
            1,
        );
        report.set("step.trace_entries", entries as f64, 1);
        report.set(
            "step.kernels_per_step",
            self.kernels_per_step as f64 / calls,
            self.simulate_calls,
        );
        report.set(
            "step.unique_kernels",
            self.unique_kernels as f64 / calls,
            self.simulate_calls,
        );
        let pricing_ns = times.get("cost.kernel_cost").map_or(0, |t| t.total_ns());
        report.set(
            "cost.kernel_ns",
            pricing_ns as f64 / self.kernels_priced.max(1) as f64,
            self.kernels_priced,
        );
        report.set("cost.kernels_priced", self.kernels_priced as f64, 1);
        report.set(
            "memory.max_batch_us",
            mean("memory.max_batch"),
            count("memory.max_batch"),
        );
        report.set(
            "distributed.step_us",
            mean("distributed.step"),
            count("distributed.step"),
        );
        report.set(
            "distributed.max_batch_us",
            mean("distributed.max_batch"),
            count("distributed.max_batch"),
        );
        report.set(
            "distributed.multi_gpu_share",
            self.multi_gpu as f64 / engine_calls.max(1) as f64,
            engine_calls,
        );
        report.set(
            "cold.shape_reuse_share",
            self.reused_requests as f64 / self.simulating_requests.max(1) as f64,
            self.simulating_requests,
        );
    }
}

/// The batch sizes a sweep answer enumerates: endpoints plus an even sample
/// of the interior, as the planner picks them.
fn sweep_batches(max_batch: usize) -> Vec<usize> {
    let mut batches: Vec<usize> = if max_batch <= SWEEP_MAX_POINTS {
        (1..=max_batch).collect()
    } else {
        (0..SWEEP_MAX_POINTS)
            .map(|i| 1 + i * (max_batch - 1) / (SWEEP_MAX_POINTS - 1))
            .collect()
    };
    batches.dedup();
    batches
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_gate_rejects_a_corrupted_reply() {
        let planner = Planner::new();
        let mut rng = Rng::new(5);
        let lines: Vec<String> = (0..40).map(|_| gen::next_cold(&mut rng)).collect();
        let fresh = Planner::new();
        let mut replies: Vec<String> = lines
            .iter()
            .map(|l| fresh.answer(&ScenarioSpec::parse_str(l).expect("parses")))
            .collect();
        assert_eq!(
            check_replies(&planner, lines.iter().cloned(), &replies),
            (0, vec![])
        );
        // One flipped digit in one reply is caught, as is a missing reply.
        let victim = replies[7].replacen('1', "2", 1);
        assert_ne!(victim, replies[7]);
        replies[7] = victim;
        let (failed, notes) = check_replies(&planner, lines.iter().cloned(), &replies);
        assert_eq!(failed, 1);
        assert!(notes[0].contains("served"), "{notes:?}");
        replies.pop();
        assert!(!check_replies(&planner, lines.iter().cloned(), &replies)
            .1
            .is_empty());

        let hot = gen::hot_universe();
        let mut reference: Vec<String> = hot
            .iter()
            .map(|l| fresh.answer(&ScenarioSpec::parse_str(l).expect("parses")))
            .collect();
        let per_line = vec![3u64; hot.len()];
        let mut report = Report::default();
        check_hot(&hot, &reference, &per_line, &mut report);
        assert!(report.correct());
        reference[100].push(' ');
        check_hot(&hot, &reference, &per_line, &mut report);
        assert_eq!(
            report.failed, 3,
            "every request served from the bad reply fails"
        );
        assert!(!report.correct());
    }

    #[test]
    fn sweep_batches_match_the_planner_sampling() {
        assert_eq!(sweep_batches(3), vec![1, 2, 3]);
        let wide = sweep_batches(100);
        assert_eq!(wide.len(), SWEEP_MAX_POINTS);
        assert_eq!((wide[0], wide[SWEEP_MAX_POINTS - 1]), (1, 100));
    }
}
