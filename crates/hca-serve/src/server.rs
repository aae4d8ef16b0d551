//! The daemon: accept loop, per-connection handlers, request dispatch,
//! request-level result cache.
//!
//! Concurrency model: one OS thread per connection (clients are expected
//! in the tens, not the tens of thousands), each handling its requests
//! sequentially so responses come back in request order. `compile_batch`
//! fans its jobs across the [`hca_par`] worker set with per-item panic
//! isolation ([`hca_par::try_par_map`]) — a job whose worker panics fails
//! *that job only*; survivors keep their deterministic slots and the
//! daemon keeps serving.
//!
//! All connections share one result cache keyed by the exact resolved job
//! (kernel name or inline DDG, plus the resolved machine; the daemon's
//! [`HcaConfig`] is fixed for its lifetime). A hit returns the summary a
//! direct run of that same job produced, so served ≡ direct holds by
//! construction. Only successful compiles are cached, and a request for a
//! job another request is solving waits for that solve. The cache is
//! bounded by a fixed byte budget; an insert that would exceed it clears
//! the map first.
//!
//! Intake is bounded: at most `MAX_CONNECTIONS` connections are served at
//! once (the accept loop reaps finished handlers as it goes, and answers a
//! connection over the cap with an error before closing it), and a request
//! line may hold at most `MAX_LINE_BYTES` bytes (a longer line is answered
//! with an error and discarded up to its newline; the connection keeps
//! serving).
//!
//! The accept loop polls a non-blocking listener and a stop flag;
//! connection readers poll with a short read timeout. A `shutdown` request
//! flips the flag and every thread drains within a poll interval.

use crate::kernels::resolve_kernel;
use crate::protocol::{
    summarise, CompileSpec, CompileSummary, ItemResult, Request, Response, StatsReport,
};
use hca_arch::DspFabric;
use hca_core::{run_hca_obs, HcaConfig};
use hca_ddg::Ddg;
use hca_obs::Obs;
use std::collections::{HashMap, HashSet};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpListener;
#[cfg(unix)]
use std::os::unix::net::UnixListener;
#[cfg(unix)]
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// Where the daemon listens.
#[derive(Clone, Debug)]
pub enum Bind {
    /// A TCP address, e.g. `127.0.0.1:7878` (`:0` picks a free port).
    Tcp(String),
    /// A Unix-domain socket path (removed and re-created on bind).
    #[cfg(unix)]
    Unix(PathBuf),
}

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Listen address.
    pub bind: Bind,
    /// The solving configuration every request runs under.
    pub hca: HcaConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            bind: Bind::Tcp("127.0.0.1:0".to_string()),
            hca: HcaConfig::default(),
        }
    }
}

/// Byte budget of the result cache. Entries are a few hundred bytes for a
/// named kernel and up to a request line for an inline DDG.
const CACHE_BUDGET: usize = 64 << 20;

/// Whole-request result cache: exact job key → the summary its compile
/// produced. Keys come from clients, so the maps keep std's DoS-resistant
/// hasher.
#[derive(Default)]
struct ResultCache {
    map: HashMap<String, CompileSummary>,
    /// Jobs being solved right now. A repeat of one waits for that solve
    /// instead of solving the same job again on a contended core.
    solving: HashSet<String>,
    bytes: usize,
    hits: u64,
    misses: u64,
}

/// Approximate heap plus inline footprint of one cache entry.
fn entry_bytes(key: &str, summary: &CompileSummary) -> usize {
    key.len()
        + summary.kernel.len()
        + summary.digest.len()
        + std::mem::size_of::<(String, CompileSummary)>()
}

impl ResultCache {
    /// Insert, first clearing the whole map if the entry would push it
    /// past [`CACHE_BUDGET`].
    fn insert(&mut self, key: String, summary: CompileSummary) {
        let size = entry_bytes(&key, &summary);
        if self.bytes + size > CACHE_BUDGET {
            self.map.clear();
            self.bytes = 0;
        }
        self.bytes += size;
        self.map.insert(key, summary);
    }
}

/// State shared by the accept loop and every connection thread.
struct Shared {
    cache: Mutex<ResultCache>,
    /// Signalled whenever a job leaves [`ResultCache::solving`].
    solved: Condvar,
    hca: HcaConfig,
    stop: AtomicBool,
    requests: AtomicU64,
    errors: AtomicU64,
}

impl Shared {
    /// The cache lock. A panicking compile never holds it, so a poisoned
    /// lock still guards a consistent map.
    fn cache(&self) -> std::sync::MutexGuard<'_, ResultCache> {
        self.cache.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn stats(&self) -> StatsReport {
        let cache = self.cache();
        StatsReport {
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_entries: cache.map.len(),
            cache_bytes: cache.bytes,
            requests: self.requests.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
        }
    }
}

enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener),
}

/// A bound (but not yet running) daemon. [`Server::bind`] claims the
/// address; [`Server::run`] serves until a `shutdown` request, then
/// returns the final stats.
pub struct Server {
    listener: Listener,
    shared: Arc<Shared>,
    local_addr: String,
}

/// Accept-loop poll interval; also bounds how long shutdown drains.
const POLL: Duration = Duration::from_millis(25);

/// Connections served at once; one more is answered with an error and
/// closed. Clients are expected in the tens.
const MAX_CONNECTIONS: usize = 64;

/// Longest request line accepted, newline included. An inline DDG of the
/// largest built-in kernel serialises to ~55 KB.
const MAX_LINE_BYTES: usize = 4 << 20;

impl Server {
    /// Bind the listen address; the result cache starts empty.
    pub fn bind(cfg: ServerConfig) -> std::io::Result<Server> {
        let (listener, local_addr) = match &cfg.bind {
            Bind::Tcp(addr) => {
                let l = TcpListener::bind(addr.as_str())?;
                l.set_nonblocking(true)?;
                let local = l.local_addr()?.to_string();
                (Listener::Tcp(l), local)
            }
            #[cfg(unix)]
            Bind::Unix(path) => {
                // A previous unclean exit leaves the socket file behind;
                // re-binding it is this daemon's claim.
                let _ = std::fs::remove_file(path);
                let l = UnixListener::bind(path)?;
                l.set_nonblocking(true)?;
                (Listener::Unix(l), path.display().to_string())
            }
        };
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                cache: Mutex::default(),
                solved: Condvar::new(),
                hca: cfg.hca,
                stop: AtomicBool::new(false),
                requests: AtomicU64::new(0),
                errors: AtomicU64::new(0),
            }),
            local_addr,
        })
    }

    /// The bound address — for TCP, `ip:port` with the real port even when
    /// the config asked for `:0`.
    pub fn local_addr(&self) -> &str {
        &self.local_addr
    }

    /// Serve until a `shutdown` request (or [`Server::stop_handle`] flips),
    /// then drain connections and return final stats.
    pub fn run(self) -> std::io::Result<StatsReport> {
        let mut handles = Vec::new();
        while !self.shared.stop.load(Ordering::SeqCst) {
            let accepted = match &self.listener {
                Listener::Tcp(l) => match l.accept() {
                    Ok((stream, _)) => {
                        stream.set_nonblocking(false)?;
                        stream.set_read_timeout(Some(POLL))?;
                        let writer = stream.try_clone();
                        self.admit(&mut handles, stream, writer);
                        true
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => false,
                    Err(e) => return Err(e),
                },
                #[cfg(unix)]
                Listener::Unix(l) => match l.accept() {
                    Ok((stream, _)) => {
                        stream.set_nonblocking(false)?;
                        stream.set_read_timeout(Some(POLL))?;
                        let writer = stream.try_clone();
                        self.admit(&mut handles, stream, writer);
                        true
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => false,
                    Err(e) => return Err(e),
                },
            };
            if !accepted {
                std::thread::sleep(POLL);
            }
        }
        // Connection readers poll the stop flag between timeouts, so every
        // handler exits within ~one interval even if its client lingers.
        for h in handles {
            let _ = h.join();
        }
        #[cfg(unix)]
        if let Listener::Unix(_) = &self.listener {
            let _ = std::fs::remove_file(&self.local_addr);
        }
        Ok(self.shared.stats())
    }

    /// Reap finished handlers, then hand the connection to a fresh one —
    /// or, at [`MAX_CONNECTIONS`] live handlers, answer it with an error
    /// and close it.
    fn admit<R, W>(&self, handles: &mut Vec<JoinHandle<()>>, reader: R, writer: std::io::Result<W>)
    where
        R: Read + Send + 'static,
        W: Write + Send + 'static,
    {
        let (finished, live): (Vec<_>, Vec<_>) =
            handles.drain(..).partition(JoinHandle::is_finished);
        *handles = live;
        for h in finished {
            let _ = h.join();
        }
        if handles.len() >= MAX_CONNECTIONS {
            // Counted like any other `ok:false` answer.
            self.shared.requests.fetch_add(1, Ordering::Relaxed);
            self.shared.errors.fetch_add(1, Ordering::Relaxed);
            if let Ok(mut w) = writer {
                let busy = Response::err(
                    0,
                    format!("server busy: {MAX_CONNECTIONS} connections open; retry later"),
                );
                let _ = write_response(&mut w, &busy);
            }
            return;
        }
        let shared = Arc::clone(&self.shared);
        handles.push(std::thread::spawn(move || {
            handle_connection(&shared, reader, writer);
        }));
    }

    /// A handle that makes [`Server::run`] return (equivalent to a client
    /// `shutdown` request) — for embedding the daemon in tests and benches.
    pub fn stop_handle(&self) -> StopHandle {
        StopHandle {
            shared: Arc::clone(&self.shared),
        }
    }
}

/// See [`Server::stop_handle`].
pub struct StopHandle {
    shared: Arc<Shared>,
}

impl StopHandle {
    /// Request shutdown; the accept loop exits within one poll interval.
    pub fn stop(&self) {
        self.shared.stop.store(true, Ordering::SeqCst);
    }
}

/// Serve one connection: JSON-lines requests in, responses out, in order.
/// Generic over the stream so TCP and Unix sockets share the code.
fn handle_connection<R: Read>(shared: &Shared, reader: R, writer: std::io::Result<impl Write>) {
    let Ok(mut writer) = writer else { return };
    let mut reader = BufReader::new(reader);
    let mut line = Vec::new();
    let mut oversized = false;
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        match read_request_line(&mut reader, &mut line, &mut oversized) {
            Ok(false) => return, // client closed
            Ok(true) => {
                let answer = if std::mem::take(&mut oversized) {
                    Some((
                        Response::err(
                            0,
                            format!("request line exceeds {MAX_LINE_BYTES} bytes; discarded"),
                        ),
                        false,
                    ))
                } else {
                    match std::str::from_utf8(&line) {
                        Ok(text) if text.trim().is_empty() => None,
                        Ok(text) => Some(dispatch(shared, text)),
                        Err(e) => Some((Response::err(0, format!("bad request: {e}")), false)),
                    }
                };
                line.clear();
                let Some((resp, shutdown)) = answer else {
                    continue;
                };
                shared.requests.fetch_add(1, Ordering::Relaxed);
                if !resp.ok {
                    shared.errors.fetch_add(1, Ordering::Relaxed);
                }
                if write_response(&mut writer, &resp).is_err() {
                    return;
                }
                if shutdown {
                    shared.stop.store(true, Ordering::SeqCst);
                    return;
                }
            }
            // Timeout polls: the partial line (or the discard state) stays
            // in `line` / `oversized`; the next read carries on from it.
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) => {}
            Err(_) => return,
        }
    }
}

/// Read up to the next newline into `line`, keeping at most
/// [`MAX_LINE_BYTES`]: past the cap, `line` is emptied, `oversized` set,
/// and the rest of the line is consumed unbuffered. `Ok(true)` when a line
/// is complete (or cut short by end of stream), `Ok(false)` at end of
/// stream with nothing pending.
fn read_request_line(
    reader: &mut impl BufRead,
    line: &mut Vec<u8>,
    oversized: &mut bool,
) -> std::io::Result<bool> {
    loop {
        let buf = reader.fill_buf()?;
        if buf.is_empty() {
            return Ok(!line.is_empty() || *oversized);
        }
        let (len, done) = match buf.iter().position(|&b| b == b'\n') {
            Some(i) => (i + 1, true),
            None => (buf.len(), false),
        };
        if !*oversized {
            if line.len() + len > MAX_LINE_BYTES {
                *oversized = true;
                *line = Vec::new();
            } else {
                line.extend_from_slice(&buf[..len]);
            }
        }
        reader.consume(len);
        if done {
            return Ok(true);
        }
    }
}

/// Write one response line, newline included, in a single `write_all` and
/// flush it. Writing the newline separately would send each response as
/// two segments, and Nagle's algorithm with delayed ACK then stalls every
/// response by ~40 ms.
fn write_response(writer: &mut impl Write, resp: &Response) -> std::io::Result<()> {
    let mut line = serde_json::to_string(resp)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    line.push('\n');
    writer.write_all(line.as_bytes())?;
    writer.flush()
}

/// Decode and execute one request line. Returns the response and whether
/// this request asked the daemon to shut down.
fn dispatch(shared: &Shared, line: &str) -> (Response, bool) {
    let req: Request = match serde_json::from_str(line) {
        Ok(r) => r,
        Err(e) => {
            // Fish the id out of the raw JSON if there is one, so even a
            // malformed request correlates with its error.
            let id = serde_json::from_str_value(line)
                .ok()
                .and_then(|v| v.field("id").as_u64())
                .unwrap_or(0);
            return (Response::err(id, format!("bad request: {e}")), false);
        }
    };
    let id = req.id;
    match req.op.as_str() {
        "ping" => (Response::ok(id, &"pong"), false),
        "stats" => (Response::ok(id, &shared.stats()), false),
        "compile" => {
            // Single jobs run through the same panic-isolating dispatch as
            // batches: a panicking solve fails this request, not the daemon.
            let items = run_jobs(shared, std::slice::from_ref(&req.job));
            let item = items.into_iter().next().expect("one job in, one out");
            match (item.ok, item.result, item.error) {
                (true, Some(summary), _) => (Response::ok(id, &summary), false),
                (_, _, err) => (
                    Response::err(id, err.unwrap_or_else(|| "compile failed".into())),
                    false,
                ),
            }
        }
        "compile_batch" => {
            if req.jobs.is_empty() {
                return (Response::err(id, "compile_batch needs jobs"), false);
            }
            let items = run_jobs(shared, &req.jobs);
            (Response::ok(id, &items), false)
        }
        "crash" => {
            // Diagnostic op: deliberately panic inside the worker dispatch,
            // proving to operators (and the CI serve job) that a panicking
            // request degrades only itself.
            let jobs = [()];
            let caught = hca_par::try_par_map(&jobs, |()| -> () {
                panic!("deliberate crash requested by client");
            });
            let msg = match &caught[0] {
                Err(p) => p.to_string(),
                Ok(()) => "crash op failed to crash".to_string(),
            };
            (Response::err(id, msg), false)
        }
        "shutdown" => (Response::ok(id, &"shutting down"), true),
        other => (Response::err(id, format!("unknown op `{other}`")), false),
    }
}

/// Fan `jobs` across the worker set with per-item panic isolation; one
/// [`ItemResult`] per job, in job order.
fn run_jobs(shared: &Shared, jobs: &[CompileSpec]) -> Vec<ItemResult> {
    hca_par::try_par_map(jobs, |job| compile_one(shared, job))
        .into_iter()
        .map(|worker| match worker {
            Ok(Ok(summary)) => ItemResult {
                ok: true,
                error: None,
                result: Some(summary),
            },
            Ok(Err(e)) => ItemResult {
                ok: false,
                error: Some(e),
                result: None,
            },
            Err(panic) => ItemResult {
                ok: false,
                error: Some(panic.to_string()),
                result: None,
            },
        })
        .collect()
}

/// Resolve one job and answer it from the result cache, or solve it and
/// cache the summary.
fn compile_one(shared: &Shared, job: &CompileSpec) -> Result<CompileSummary, String> {
    let (name, ddg): (String, Ddg) = match (&job.ddg, &job.kernel) {
        (Some(ddg), _) => {
            ddg.validate().map_err(|e| format!("inline ddg: {e}"))?;
            ("inline".to_string(), ddg.clone())
        }
        (None, Some(kernel)) => resolve_kernel(kernel)?,
        (None, None) => return Err("compile needs `kernel` or `ddg`".into()),
    };
    let fabric = parse_machine(job.machine.as_deref())?;
    let key = cache_key(&name, job.ddg.as_ref(), &fabric)?;
    let mut cache = shared.cache();
    loop {
        if let Some(hit) = cache.map.get(&key) {
            let hit = hit.clone();
            cache.hits += 1;
            return Ok(hit);
        }
        if cache.solving.insert(key.clone()) {
            cache.misses += 1;
            break;
        }
        cache = shared
            .solved
            .wait(cache)
            .unwrap_or_else(PoisonError::into_inner);
    }
    drop(cache);
    let mut claim = Claim {
        shared,
        key,
        summary: None,
    };
    let res =
        run_hca_obs(&ddg, &fabric, &shared.hca, &Obs::disabled()).map_err(|e| e.to_string())?;
    let summary = summarise(&name, &ddg, &res);
    claim.summary = Some(summary.clone());
    Ok(summary)
}

/// A job this request is solving. Dropping it — solved, failed or
/// unwinding from a panic — caches the summary if there is one, releases
/// the job and wakes the requests waiting for it.
struct Claim<'a> {
    shared: &'a Shared,
    key: String,
    summary: Option<CompileSummary>,
}

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        let mut cache = self.shared.cache();
        cache.solving.remove(&self.key);
        if let Some(summary) = self.summary.take() {
            cache.insert(std::mem::take(&mut self.key), summary);
        }
        drop(cache);
        self.shared.solved.notify_all();
    }
}

/// The exact resolved job: the kernel name (a built-in name fixes its
/// DDG) or the whole inline DDG, plus the resolved machine.
fn cache_key(name: &str, inline: Option<&Ddg>, fabric: &DspFabric) -> Result<String, String> {
    let ddg = match inline {
        Some(ddg) => serde_json::to_string(ddg).map_err(|e| format!("cache key: {e}"))?,
        None => String::new(),
    };
    let machine = serde_json::to_string(fabric).map_err(|e| format!("cache key: {e}"))?;
    Ok(format!("{name}\n{ddg}\n{machine}"))
}

/// Parse a machine spec: `N,M,K` / `N` MUX capacities of the standard
/// 64-CN fabric, or a full `ARITIES@CAPS` hierarchy spec.
pub fn parse_machine(spec: Option<&str>) -> Result<DspFabric, String> {
    let Some(spec) = spec else {
        return Ok(DspFabric::standard(8, 8, 8));
    };
    if spec.contains('@') {
        return DspFabric::parse(spec);
    }
    let parts: Vec<usize> = spec
        .split(',')
        .map(|p| p.trim().parse::<usize>())
        .collect::<Result<_, _>>()
        .map_err(|_| format!("bad machine spec `{spec}`"))?;
    match parts.as_slice() {
        [n] => Ok(DspFabric::standard(*n, *n, *n)),
        [n, m, k] => Ok(DspFabric::standard(*n, *m, *k)),
        _ => Err(format!("bad machine spec `{spec}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A sink that counts `write` calls.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn each_response_line_leaves_in_one_write() {
        let mut w = CountingWriter::default();
        write_response(&mut w, &Response::ok(1, &"pong")).unwrap();
        write_response(&mut w, &Response::err(2, "nope")).unwrap();
        assert_eq!(w.writes, 2, "one write per response line");
        let text = String::from_utf8(w.bytes).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.ends_with('\n'));
    }

    fn summary(kernel: &str) -> CompileSummary {
        CompileSummary {
            kernel: kernel.to_string(),
            nodes: 1,
            final_mii: 1,
            theoretical_mii: 1,
            legal: true,
            recvs: 0,
            subproblems: 1,
            digest: "0".repeat(16),
        }
    }

    #[test]
    fn result_cache_clears_past_its_budget() {
        let mut cache = ResultCache::default();
        cache.insert("a".into(), summary("a"));
        assert_eq!(cache.map.get("a"), Some(&summary("a")));
        // An entry that does not fit beside the others clears the map.
        let big = "k".repeat(CACHE_BUDGET - cache.bytes);
        cache.insert(big.clone(), summary("big"));
        assert_eq!(cache.map.len(), 1);
        assert!(cache.map.contains_key(&big));
        assert_eq!(cache.bytes, entry_bytes(&big, &summary("big")));
    }
}
