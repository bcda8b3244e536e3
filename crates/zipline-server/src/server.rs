//! The ingest server: accept loop, per-connection pipelined streams, the
//! ordered response writer, and graceful shutdown.
//!
//! # Connection lifecycle
//!
//! An accepted connection serves either **one stream** (the classic path)
//! or, when the client's hello sets the multiplex flag, **many flows over
//! one socket** (the [`zipline_flow`] path):
//!
//! 1. The client opens with `CLIENT_HELLO` (stream id + replay cursor).
//! 2. The server builds one engine for the stream — durable under
//!    `<root>/tenant-<id>/stream-<id>` when [`HostPathConfig::durable`] is
//!    set — answers with `SERVER_HELLO`, replays any committed journal
//!    entries past the client's cursor, and streams synthesized `RESEED`
//!    installs when the journal was compacted away.
//! 3. `DATA` records feed a [`PipelinedStream`]; every emitted payload and
//!    control update is framed and handed to the **ordered writer** (below)
//!    as soon as its batch is compressed.
//! 4. `END` (or a graceful server shutdown) drains in-flight batches,
//!    commits, compacts the journal, and answers with `DONE`.
//!
//! # Multiplexed connections
//!
//! With the multiplex flag, the connection carries a [`FlowRouter`]: every
//! `FLOW_OPEN` places one flow onto its tenant's partition pool (own engine,
//! own dictionary namespace, own durable directory), `FLOW_DATA` records
//! route by flow key, and every emission leaves flow-tagged
//! (`FLOW_PAYLOAD`/`FLOW_CONTROL`). The single ordered writer preserves each
//! flow's controls-strictly-before-dependent-payloads invariant because the
//! router drains emissions in order. `FLOW_END` finishes one flow
//! (`FLOW_DONE` answers); connection `END` or a graceful shutdown finishes
//! the remaining flows in sorted key order and answers with an aggregate
//! `DONE`. Flow keys live in the same server-wide active set as classic
//! streams (which occupy tenant 0), so a flow can be served by at most one
//! connection at a time.
//!
//! # Threads of a connection
//!
//! Each connection runs four kinds of thread:
//!
//! * the **reader** blocks in `read` on the socket and forwards the bytes
//!   of each `read` to the handler as one event (one channel operation per
//!   `read`, never per record);
//! * the **handler** owns the session: it decodes records from the
//!   forwarded bytes with [`WireCodec::decode`], pushes them into the
//!   stream (or the [`FlowRouter`]), runs the sinks and hands their frames
//!   to the writer;
//! * a **worker** per [`PipelinedStream`] compresses batches (one per flow
//!   on a multiplexed connection);
//! * the **writer** drains framed output to the socket.
//!
//! The handler waits on one bounded channel that carries three kinds of
//! event: socket bytes, the end of input (EOF or a read error), and *batch
//! ready*, which each worker fires after returning a finished batch. So a
//! batch reaches the client as soon as it is compressed, even when the
//! client sends nothing more until it sees that batch — a closed-loop
//! client with a window of one batch never waits on the server.
//!
//! **Wake argument.** The reader sends with a blocking `send`
//! (backpressure). A worker never blocks on signalling: it `try_send`s
//! *ready*, and only after it has sent the batch itself. When the channel
//! is full the wake-up is dropped, and that is safe: the handler takes
//! every queued event later than the failed `try_send`, and after each
//! event it takes, whatever its kind, it emits every finished batch: a
//! classic stream's `push_record` ends with `emit_ready` and a wake-up
//! calls it directly; a multiplexed connection calls the router's
//! `emit_ready` after every event. So the first event the full channel
//! held finds the batch.
//! Every other wait of the handler ends too: the writer drains as long as
//! the client reads, and the worker's job queue drains without waiting on
//! the handler.
//!
//! # Ordered writer and backpressure
//!
//! Each connection owns one writer thread fed by a bounded
//! [`sync_channel`](std::sync::mpsc::sync_channel) of **bursts**: the sinks
//! append frames to a per-connection buffer, and the handler sends that
//! buffer to the writer once per step (after each push or wake-up), so
//! [`ServerConfig::writer_depth`] counts bursts, not frames. The sinks run
//! on the handler thread, so frames enter the channel in emission order
//! from a single producer and responses are **totally ordered** — a
//! control update always reaches the socket before the payload that
//! depends on it. When the client stops reading, the channel fills and
//! sends block, which in turn stops the handler and, once the event
//! channel is full, the reader: backpressure propagates to the client's
//! sender instead of buffering unboundedly. A dead client (write failure)
//! trips the writer's failure flag; the handler notices at its next step
//! and abandons the stream instead of compressing into the void.
//!
//! # Shutdown semantics
//!
//! The accept loop blocks in `accept`; closing the server wakes it by
//! connecting to the server's own endpoint.
//!
//! [`ServerHandle::shutdown`] is **graceful**: the listener stops accepting,
//! each connection's read half closes, and every in-flight stream finishes
//! exactly as if the client had sent `END` — in-flight batches drain,
//! the tail commits, `DONE` (with `server_initiated = true`) reaches the
//! client. [`ServerHandle::abort`] is a **crash**: sockets close both ways
//! and streams drop without finishing — durable state cuts at the last
//! commit boundary, which is precisely the state a killed process leaves
//! behind, so tests use it to exercise warm restarts.

use std::collections::HashSet;
use std::io::Write;
use std::net::ToSocketAddrs;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use zipline::host::HostPathConfig;
use zipline_engine::{
    AutoBackend, CodecCursor, CodecId, CommittedEntry, CompressionBackend, CompressionEngine,
    DeflateBackend, DictionaryUpdate, EngineError, GdBackend, HybridGdDeflateBackend,
    PipelinedStream, StreamSummary, SyncPolicy,
};
use zipline_flow::{flow_dir, FlowError, FlowKey, FlowRouter, FlowRouterConfig};
use zipline_gd::packet::PacketType;

use crate::error::{ServerError, ServerResult};
use crate::net::{Conn, Endpoint, Listener};
use crate::wire::{ClientHello, DoneSummary, Record, ServerHello, WireCodec, WIRE_VERSION};

mod conn;

use conn::{run_events, Inbox, Input, Outbox};

/// Boxed payload sink handed to the pipelined stream.
type PayloadSink = Box<dyn FnMut(PacketType, &[u8])>;
/// Boxed control sink handed to the pipelined stream.
type ControlSink = Box<dyn FnMut(&DictionaryUpdate)>;

/// Which compression backend the server builds for every stream, selected
/// by name from the codec registry (plus the `auto` router, which has no
/// registry id of its own — it routes each batch to a registered codec).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum BackendChoice {
    /// Generalized deduplication (the paper's engine); registry id 1.
    #[default]
    Gd,
    /// Plain DEFLATE/gzip batches; registry id 2.
    Deflate,
    /// GD first, gzip the residue — one container per batch; registry id 4.
    Hybrid,
    /// Per-batch sampling router over GD and deflate; emissions carry
    /// per-batch codec tags, so `auto` requires a wire-v3 peer.
    Auto,
}

impl BackendChoice {
    /// Parses a backend name as accepted by `--backend` (`gd`, `deflate`,
    /// `hybrid`, `auto`).
    pub fn parse_name(name: &str) -> Option<Self> {
        match name {
            "gd" => Some(Self::Gd),
            "deflate" => Some(Self::Deflate),
            "hybrid" => Some(Self::Hybrid),
            "auto" => Some(Self::Auto),
            _ => None,
        }
    }

    /// The canonical name (`parse_name`'s inverse).
    pub fn name(self) -> &'static str {
        match self {
            Self::Gd => "gd",
            Self::Deflate => "deflate",
            Self::Hybrid => "hybrid",
            Self::Auto => "auto",
        }
    }
}

impl std::fmt::Display for BackendChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Default bound of the per-connection ordered writer, in emission bursts
/// (see [`ServerConfig::writer_depth`]).
pub const DEFAULT_WRITER_DEPTH: usize = 16;

/// Server configuration: the host-path shape every stream engine is built
/// from, the backend choice, and the response writer's depth.
///
/// Build one with [`ServerConfigBuilder`] (validated) or the
/// [`Self::paper_default`]/[`Self::durable`] shorthands.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Engine/host configuration applied to every stream. When
    /// [`HostPathConfig::durable`] is set it names the *root* directory;
    /// each stream journals under `stream-<id16>` below it. A `None`
    /// [`HostPathConfig::pipeline_depth`] is promoted to `Some(2)` — the
    /// server path is pipelined by construction.
    pub host: HostPathConfig,
    /// Bound of the per-connection ordered writer, in emission bursts: the
    /// frames one handler step produced (a push, a batch-ready wake-up, a
    /// finish), sent to the writer together. Defaults to
    /// [`DEFAULT_WRITER_DEPTH`] (16). A deeper queue buys no goodput: when
    /// the client reads slower than the server compresses, it only holds
    /// more finished output in server memory before backpressure starts.
    pub writer_depth: usize,
    /// Backend every stream engine is built over.
    pub backend: BackendChoice,
}

impl ServerConfig {
    /// Paper-default host path, pipelined at depth 2, 16-burst writer,
    /// GD backend.
    pub fn paper_default() -> Self {
        // Defaults are valid by construction — no need for the fallible
        // `build` (which exists to catch caller-supplied zeroes).
        ServerConfigBuilder::new().finish_unchecked()
    }

    /// Paper defaults with a durable store rooted at `dir`.
    pub fn durable(dir: impl Into<PathBuf>) -> Self {
        ServerConfigBuilder::new()
            .store_root(dir)
            .finish_unchecked()
    }
}

/// Validated builder for [`ServerConfig`], mirroring the engine's builder
/// idiom: every knob is named, and `build` rejects nonsensical values with
/// a typed error instead of letting them fail deep inside a handler.
#[derive(Debug, Clone)]
pub struct ServerConfigBuilder {
    host: HostPathConfig,
    writer_depth: usize,
    backend: BackendChoice,
}

impl Default for ServerConfigBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ServerConfigBuilder {
    /// Paper-default host path, 16-burst writer, GD backend.
    pub fn new() -> Self {
        Self {
            host: HostPathConfig::paper_default(),
            writer_depth: DEFAULT_WRITER_DEPTH,
            backend: BackendChoice::Gd,
        }
    }

    /// Replaces the whole host configuration (the other host knobs below
    /// then mutate this value).
    pub fn host(mut self, host: HostPathConfig) -> Self {
        self.host = host;
        self
    }

    /// Roots a durable store at `dir`; each stream journals below it.
    pub fn store_root(mut self, dir: impl Into<PathBuf>) -> Self {
        self.host.durable = Some(dir.into());
        self
    }

    /// Chunks per compression batch.
    pub fn batch_chunks(mut self, chunks: usize) -> Self {
        self.host.batch_chunks = chunks;
        self
    }

    /// In-flight batch bound of each stream's pipeline.
    pub fn pipeline_depth(mut self, depth: usize) -> Self {
        self.host.pipeline_depth = Some(depth);
        self
    }

    /// Commits between durable checkpoints.
    pub fn checkpoint_cadence(mut self, cadence: u64) -> Self {
        self.host.checkpoint_cadence = cadence;
        self
    }

    /// Durability barrier of the store's commits.
    pub fn sync(mut self, sync: SyncPolicy) -> Self {
        self.host.sync = sync;
        self
    }

    /// Stream dictionary updates to clients as they commit.
    pub fn live_sync(mut self, live: bool) -> Self {
        self.host.live_sync = live;
        self
    }

    /// Bound of the per-connection ordered writer, in emission bursts (see
    /// [`ServerConfig::writer_depth`]).
    pub fn writer_depth(mut self, depth: usize) -> Self {
        self.writer_depth = depth;
        self
    }

    /// Backend every stream engine is built over.
    pub fn backend(mut self, backend: BackendChoice) -> Self {
        self.backend = backend;
        self
    }

    /// Validates and produces the configuration.
    pub fn build(self) -> ServerResult<ServerConfig> {
        if self.writer_depth == 0 {
            return Err(ServerError::Config(
                "writer_depth must be at least 1".into(),
            ));
        }
        if self.host.batch_chunks == 0 {
            return Err(ServerError::Config(
                "batch_chunks must be at least 1".into(),
            ));
        }
        if self.host.pipeline_depth == Some(0) {
            return Err(ServerError::Config(
                "pipeline_depth must be at least 1".into(),
            ));
        }
        Ok(self.finish_unchecked())
    }

    fn finish_unchecked(mut self) -> ServerConfig {
        if self.host.pipeline_depth.is_none() {
            self.host.pipeline_depth = Some(2);
        }
        ServerConfig {
            host: self.host,
            writer_depth: self.writer_depth,
            backend: self.backend,
        }
    }
}

/// Durable directory of one classic (single-stream-per-connection) stream
/// under the configured root. Classic streams occupy tenant 0 of the
/// tenant-scoped layout, so a stream created before multiplexing can be
/// reopened as tenant 0's flow of the same id and vice versa.
pub fn stream_dir(root: &Path, stream_id: u64) -> PathBuf {
    flow_dir(root, FlowKey::new(0, stream_id))
}

/// Monotonic counters the server keeps; snapshot via [`ServerHandle::stats`].
#[derive(Debug, Default)]
struct ServerStats {
    connections: AtomicU64,
    streams_completed: AtomicU64,
    records_in: AtomicU64,
    bytes_in: AtomicU64,
    payloads_out: AtomicU64,
    controls_out: AtomicU64,
    bytes_out: AtomicU64,
    replayed_entries: AtomicU64,
    failed_streams: AtomicU64,
}

/// Point-in-time copy of the server counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Connections accepted.
    pub connections: u64,
    /// Streams that reached `DONE`.
    pub streams_completed: u64,
    /// `DATA` records consumed.
    pub records_in: u64,
    /// `DATA` bytes consumed.
    pub bytes_in: u64,
    /// Payload records emitted (replay included).
    pub payloads_out: u64,
    /// Control + reseed records emitted (replay included).
    pub controls_out: u64,
    /// Framed bytes put on sockets.
    pub bytes_out: u64,
    /// Journal entries replayed to reconnecting clients.
    pub replayed_entries: u64,
    /// Streams that ended in an error (aborted streams excluded).
    pub failed_streams: u64,
}

impl ServerStats {
    fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            connections: self.connections.load(Ordering::Relaxed),
            streams_completed: self.streams_completed.load(Ordering::Relaxed),
            records_in: self.records_in.load(Ordering::Relaxed),
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            payloads_out: self.payloads_out.load(Ordering::Relaxed),
            controls_out: self.controls_out.load(Ordering::Relaxed),
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
            replayed_entries: self.replayed_entries.load(Ordering::Relaxed),
            failed_streams: self.failed_streams.load(Ordering::Relaxed),
        }
    }
}

/// Locks a mutex, recovering the data even when another thread panicked
/// while holding it. The protected registries (connection list, error log,
/// active-stream set) stay consistent under item-level mutation, so a
/// handler's panic must not wedge shutdown or error reporting for the
/// whole server.
fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// State shared between the accept loop, the handlers and the handle.
struct Shared {
    config: ServerConfig,
    stop: AtomicBool,
    abort: AtomicBool,
    stats: ServerStats,
    active_streams: Mutex<HashSet<FlowKey>>,
    conns: Mutex<Vec<(Conn, JoinHandle<()>)>>,
    errors: Mutex<Vec<String>>,
}

/// What [`ServerHandle::shutdown`]/[`ServerHandle::abort`] hand back.
#[derive(Debug)]
pub struct ServerReport {
    /// Final counter values.
    pub stats: StatsSnapshot,
    /// Human-readable per-stream failures (empty on a clean run).
    pub errors: Vec<String>,
}

/// A running ingest server; dropping the handle **aborts** it.
pub struct ServerHandle {
    shared: Arc<Shared>,
    endpoint: Endpoint,
    accept: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// Binds a TCP listener and starts serving over the configured
    /// [`BackendChoice`].
    pub fn bind_tcp(addr: impl ToSocketAddrs, config: ServerConfig) -> ServerResult<Self> {
        match config.backend {
            BackendChoice::Gd => Self::bind_tcp_with::<GdBackend>(addr, config),
            BackendChoice::Deflate => Self::bind_tcp_with::<DeflateBackend>(addr, config),
            BackendChoice::Hybrid => Self::bind_tcp_with::<HybridGdDeflateBackend>(addr, config),
            BackendChoice::Auto => Self::bind_tcp_with::<AutoBackend>(addr, config),
        }
    }

    /// Binds a TCP listener serving engines over backend `B`.
    pub fn bind_tcp_with<B>(addr: impl ToSocketAddrs, config: ServerConfig) -> ServerResult<Self>
    where
        B: CompressionBackend + Send + 'static,
    {
        Self::start::<B>(Listener::bind_tcp(addr)?, config)
    }

    /// Binds a Unix-domain listener and starts serving over the configured
    /// [`BackendChoice`].
    #[cfg(unix)]
    pub fn bind_uds(path: impl Into<PathBuf>, config: ServerConfig) -> ServerResult<Self> {
        match config.backend {
            BackendChoice::Gd => Self::bind_uds_with::<GdBackend>(path, config),
            BackendChoice::Deflate => Self::bind_uds_with::<DeflateBackend>(path, config),
            BackendChoice::Hybrid => Self::bind_uds_with::<HybridGdDeflateBackend>(path, config),
            BackendChoice::Auto => Self::bind_uds_with::<AutoBackend>(path, config),
        }
    }

    /// Binds a Unix-domain listener serving engines over backend `B`.
    #[cfg(unix)]
    pub fn bind_uds_with<B>(path: impl Into<PathBuf>, config: ServerConfig) -> ServerResult<Self>
    where
        B: CompressionBackend + Send + 'static,
    {
        Self::start::<B>(Listener::bind_unix(path)?, config)
    }

    fn start<B>(listener: Listener, config: ServerConfig) -> ServerResult<Self>
    where
        B: CompressionBackend + Send + 'static,
    {
        let endpoint = listener.endpoint()?;
        let shared = Arc::new(Shared {
            config,
            stop: AtomicBool::new(false),
            abort: AtomicBool::new(false),
            stats: ServerStats::default(),
            active_streams: Mutex::new(HashSet::new()),
            conns: Mutex::new(Vec::new()),
            errors: Mutex::new(Vec::new()),
        });
        let accept_shared = Arc::clone(&shared);
        let accept = thread::Builder::new()
            .name("zipline-accept".into())
            .spawn(move || accept_loop::<B>(accept_shared, listener))
            .map_err(|e| ServerError::io("spawning accept thread", e))?;
        Ok(Self {
            shared,
            endpoint,
            accept: Some(accept),
        })
    }

    /// Where the server listens (with the ephemeral port resolved).
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// Snapshot of the server counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.stats.snapshot()
    }

    /// Graceful shutdown: stop accepting, end every in-flight stream as if
    /// the client had sent `END` (drain, commit, `DONE`), join everything.
    pub fn shutdown(mut self) -> ServerReport {
        self.close(false)
    }

    /// Hard abort: close every socket both ways and drop in-flight streams
    /// without finishing — durable state cuts at the last commit boundary,
    /// exactly like a process kill.
    pub fn abort(mut self) -> ServerReport {
        self.close(true)
    }

    fn close(&mut self, abort: bool) -> ServerReport {
        self.shared.stop.store(true, Ordering::SeqCst);
        if abort {
            self.shared.abort.store(true, Ordering::SeqCst);
        }
        if let Some(handle) = self.accept.take() {
            // End the blocking accept: the listener lives until the accept
            // thread exits, so this connection reaches it (and, with `stop`
            // raised, is dropped unserved).
            drop(Conn::connect(&wake_endpoint(&self.endpoint)));
            drop(handle.join());
        }
        // Accept loop has exited, so the registry is complete. Unblock every
        // handler: half-close for graceful (reader sees EOF, stream finishes),
        // full close for abort.
        let conns = {
            let mut guard = lock_unpoisoned(&self.shared.conns);
            std::mem::take(&mut *guard)
        };
        let how = if abort {
            std::net::Shutdown::Both
        } else {
            std::net::Shutdown::Read
        };
        for (conn, _) in &conns {
            conn.shutdown(how);
        }
        for (_, handle) in conns {
            drop(handle.join());
        }
        ServerReport {
            stats: self.shared.stats.snapshot(),
            errors: std::mem::take(&mut *lock_unpoisoned(&self.shared.errors)),
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.accept.is_some() {
            self.close(true);
        }
    }
}

/// The address that reaches a listener bound to `endpoint`: a wildcard
/// bind (`0.0.0.0`, `::`) is reached on loopback.
fn wake_endpoint(endpoint: &Endpoint) -> Endpoint {
    match endpoint {
        Endpoint::Tcp(addr) if addr.ip().is_unspecified() => {
            let loopback: std::net::IpAddr = if addr.is_ipv4() {
                std::net::Ipv4Addr::LOCALHOST.into()
            } else {
                std::net::Ipv6Addr::LOCALHOST.into()
            };
            Endpoint::Tcp(std::net::SocketAddr::new(loopback, addr.port()))
        }
        other => other.clone(),
    }
}

/// Blocks in `accept` until a peer connects; [`ServerHandle::close`]
/// raises `stop` and then connects itself to end the wait.
fn accept_loop<B>(shared: Arc<Shared>, listener: Listener)
where
    B: CompressionBackend + Send + 'static,
{
    loop {
        let accepted = listener.accept();
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        match accepted {
            Ok(conn) => {
                shared.stats.connections.fetch_add(1, Ordering::Relaxed);
                let registered = match conn.try_clone() {
                    Ok(clone) => clone,
                    Err(_) => continue,
                };
                let handler_shared = Arc::clone(&shared);
                let spawned = thread::Builder::new()
                    .name("zipline-conn".into())
                    .spawn(move || handle_connection::<B>(handler_shared, conn));
                match spawned {
                    Ok(handle) => {
                        let mut conns = lock_unpoisoned(&shared.conns);
                        // Joining finished handlers is instant; prune so a
                        // long-lived server's registry stays bounded.
                        conns.retain(|(_, h)| !h.is_finished());
                        conns.push((registered, handle));
                    }
                    Err(e) => {
                        let mut errors = lock_unpoisoned(&shared.errors);
                        errors.push(format!("spawning connection handler: {e}"));
                    }
                }
            }
            // A failed accept is a per-peer abort or descriptor exhaustion;
            // the pause keeps exhaustion from spinning a core.
            Err(_) => thread::sleep(Duration::from_millis(2)),
        }
    }
}

/// Connection-scoped claim on flow keys in the server-wide active set:
/// every key registered here is released on every exit path, so a dead
/// connection never wedges its flows.
struct FlowSetGuard {
    shared: Arc<Shared>,
    keys: Vec<FlowKey>,
}

impl FlowSetGuard {
    fn new(shared: Arc<Shared>) -> Self {
        Self {
            shared,
            keys: Vec::new(),
        }
    }

    /// Claims `key`; false when another connection is already serving it.
    fn register(&mut self, key: FlowKey) -> bool {
        if lock_unpoisoned(&self.shared.active_streams).insert(key) {
            self.keys.push(key);
            true
        } else {
            false
        }
    }

    /// Releases `key` early (its flow finished while the connection lives).
    fn release(&mut self, key: FlowKey) {
        lock_unpoisoned(&self.shared.active_streams).remove(&key);
        self.keys.retain(|k| *k != key);
    }
}

impl Drop for FlowSetGuard {
    fn drop(&mut self) {
        let mut active = lock_unpoisoned(&self.shared.active_streams);
        for key in &self.keys {
            active.remove(key);
        }
    }
}

fn handle_connection<B>(shared: Arc<Shared>, conn: Conn)
where
    B: CompressionBackend + Send + 'static,
{
    let Ok(mut inbox) = Inbox::spawn(&conn) else {
        return;
    };
    let hello = loop {
        match inbox.next() {
            Ok(Some(Input::Record(Record::ClientHello(hello)))) => break hello,
            Ok(Some(Input::Wake)) => {}
            // Connected and left without a word; nothing to serve.
            Ok(None) => return,
            Ok(Some(Input::Record(other))) => {
                report_failure(
                    &shared,
                    &conn,
                    &ServerError::Protocol(format!(
                        "expected CLIENT_HELLO, got {}",
                        other.kind_name()
                    )),
                );
                return;
            }
            Err(e) => {
                report_failure(&shared, &conn, &ServerError::Wire(e));
                return;
            }
        }
    };

    let served = if hello.multiplex {
        serve_flows::<B>(&shared, &conn, &mut inbox, &hello)
    } else {
        // Classic streams occupy tenant 0 of the flow-key space, sharing
        // the active set with multiplexed flows.
        let mut guard = FlowSetGuard::new(Arc::clone(&shared));
        if !guard.register(FlowKey::new(0, hello.stream_id)) {
            report_failure(
                &shared,
                &conn,
                &ServerError::Protocol(format!(
                    "stream {:#x} is already being served on another connection",
                    hello.stream_id
                )),
            );
            return;
        }
        serve_stream::<B>(&shared, &conn, &mut inbox, &hello)
    };
    if let Err(e) = served {
        // A deliberate abort is a staged crash, not a failure to report.
        if !shared.abort.load(Ordering::SeqCst) {
            report_failure(&shared, &conn, &e);
        }
    }
}

/// Counts the failure and best-effort sends a typed `ERROR` record before
/// the connection drops.
fn report_failure(shared: &Shared, conn: &Conn, error: &ServerError) {
    shared.stats.failed_streams.fetch_add(1, Ordering::Relaxed);
    lock_unpoisoned(&shared.errors).push(error.to_string());
    if let Ok(mut writer) = conn.try_clone() {
        let frame = WireCodec::new().encode(&Record::Error(error.to_string()));
        drop(writer.write_all(&frame));
        drop(writer.flush());
    }
    conn.shutdown(std::net::Shutdown::Both);
}

/// The resume plan derived from a stream's warm start and the client's
/// replay cursor.
struct ResumePlan {
    hello: ServerHello,
    replay: Vec<CommittedEntry>,
    reseed: Vec<DictionaryUpdate>,
}

/// Maps a flow-layer error onto the server's error type: engine failures
/// stay typed, everything else is a protocol violation by the client.
fn flow_error(error: FlowError) -> ServerError {
    match error {
        FlowError::Engine(e) => ServerError::Engine(e),
        other => ServerError::Protocol(other.to_string()),
    }
}

/// Renders a flow resume plan as the wire hello announcing it. Version and
/// codec set are neutral here; the connection-level hello carries the
/// negotiated values (see [`negotiate_version`]).
fn resume_hello(resume: &zipline_flow::FlowResume) -> ServerHello {
    ServerHello {
        version: WIRE_VERSION,
        resume_bytes_in: resume.resume_bytes_in,
        replay_entries: resume.replay.len() as u64,
        reseed_entries: resume.reseed.len() as u64,
        warm: resume.warm,
        codecs: Vec::new(),
    }
}

/// Negotiates the connection's wire version from the client hello and the
/// stream backend's codec needs.
///
/// * The answer is `min(client, ours)` — a v2 peer gets a byte-exact v2
///   `SERVER_HELLO` back.
/// * A tagging backend (the `auto` router) emits per-batch codec tags,
///   which only wire v3 can carry: a v2 peer is refused with a typed
///   protocol error instead of being fed frames it cannot parse.
/// * When a v3 client advertises a codec set, every codec the backend may
///   emit must be in it; an empty advertisement means "no preference".
fn negotiate_version(
    hello: &ClientHello,
    backend_codecs: &[CodecId],
    tags: bool,
) -> ServerResult<u16> {
    let version = hello.version.min(WIRE_VERSION);
    if tags && version < 3 {
        return Err(ServerError::Protocol(format!(
            "stream backend emits per-batch codec tags, which wire version {version} cannot carry"
        )));
    }
    if version >= 3 && !hello.codecs.is_empty() {
        for id in backend_codecs {
            if !hello.codecs.contains(id) {
                return Err(ServerError::Protocol(format!(
                    "client codec set {:?} is missing codec {id} required by the stream backend",
                    hello.codecs
                )));
            }
        }
    }
    Ok(version)
}

fn resume_plan<B: CompressionBackend>(
    engine: &mut CompressionEngine<B>,
    client: &ClientHello,
) -> ServerResult<ResumePlan> {
    // The warm-start arithmetic (cursor validation, replay tail, reseed
    // synthesis) is shared with the multiplexed path via the flow layer.
    let resume = zipline_flow::plan_resume(engine, client.entries_held).map_err(flow_error)?;
    Ok(ResumePlan {
        hello: resume_hello(&resume),
        replay: resume.replay,
        reseed: resume.reseed,
    })
}

fn serve_stream<B>(
    shared: &Arc<Shared>,
    conn: &Conn,
    inbox: &mut Inbox,
    hello: &ClientHello,
) -> ServerResult<()>
where
    B: CompressionBackend + Send + 'static,
{
    let config = &shared.config;
    let mut host = config.host.clone();
    if let Some(root) = &host.durable {
        host.durable = Some(stream_dir(root, hello.stream_id));
    }

    let backend = B::from_engine_config(&host.engine).map_err(EngineError::Gd)?;
    // Capture the codec needs before the backend moves into the engine.
    let advertised = backend.codec_ids();
    let tags = backend.tags_batches();
    let version = negotiate_version(hello, &advertised, tags)?;
    let mut engine = host.engine_builder().backend(backend).build()?;
    let mut plan = resume_plan(&mut engine, hello)?;
    plan.hello.version = version;
    plan.hello.codecs = advertised;

    let out = Outbox::spawn(shared, conn)?;
    out.burst().record(&Record::ServerHello(plan.hello));
    out.resume(None, &plan.replay, &plan.reseed)?;

    // Live sync was either forced by the durable GD store at build time or
    // requested by the host configuration; both stream control updates.
    let live =
        engine.live_sync_enabled() || (host.live_sync && engine.backend().supports_live_sync());

    // Per-batch codec tags: the stream publishes the active batch's tag
    // through this cursor just before replaying its payloads, and the sink
    // samples it per payload. Fixed backends never set it (`None` frames
    // the untagged kind), so v2 streams keep their historical bytes.
    let codec_cursor = CodecCursor::new();

    let payload_sink: PayloadSink = {
        let burst = Rc::clone(&out.burst);
        let cursor = codec_cursor.clone();
        Box::new(move |packet_type, bytes| {
            burst
                .borrow_mut()
                .payload(None, cursor.get(), packet_type, bytes)
        })
    };
    let control_sink: Option<ControlSink> = live.then(|| {
        let burst = Rc::clone(&out.burst);
        Box::new(move |update: &DictionaryUpdate| burst.borrow_mut().control(None, update))
            as ControlSink
    });

    let mut stream =
        PipelinedStream::with_control_sink(engine, host.batch_chunks, payload_sink, control_sink)?;
    stream.set_codec_cursor(codec_cursor);
    stream.set_ready_signal(inbox.ready_signal());
    out.flush()?;

    let outcome = run_events(shared, inbox, &out, |record| match record {
        // A push ends by emitting whatever is ready.
        Some(Record::Data(bytes)) => {
            shared.stats.records_in.fetch_add(1, Ordering::Relaxed);
            shared
                .stats
                .bytes_in
                .fetch_add(bytes.len() as u64, Ordering::Relaxed);
            stream.push_record(&bytes)?;
            Ok(false)
        }
        Some(Record::End) => Ok(true),
        Some(other) => Err(ServerError::Protocol(format!(
            "unexpected {} record mid-stream",
            other.kind_name()
        ))),
        None => {
            stream.emit_ready()?;
            Ok(false)
        }
    });

    // An error drops the stream, which drains the worker without emitting
    // or committing anything further — crash semantics for the store.
    let client_ended = outcome?;
    let (_, summary) = stream.finish()?;
    shared
        .stats
        .streams_completed
        .fetch_add(1, Ordering::Relaxed);
    out.burst()
        .record(&Record::Done(done_summary(&summary, !client_ended)));
    Ok(())
}

/// Renders one finished stream's or flow's totals as a wire `DONE` body.
fn done_summary(summary: &StreamSummary, server_initiated: bool) -> DoneSummary {
    DoneSummary {
        bytes_in: summary.bytes_in,
        payloads_emitted: summary.payloads_emitted,
        wire_bytes: summary.wire_bytes,
        compressed_payloads: summary.compressed_payloads,
        control_updates: summary.control_updates,
        server_initiated,
    }
}

/// A multiplexed connection's serving state.
struct FlowSession<'a, B: CompressionBackend + Send + 'static> {
    shared: &'a Arc<Shared>,
    out: &'a Outbox,
    router: FlowRouter<B>,
    guard: FlowSetGuard,
    /// Running totals across finished flows for the aggregate `DONE`.
    agg: StreamSummary,
}

impl<B: CompressionBackend + Send + 'static> FlowSession<'_, B> {
    /// Handles one client record; `Ok(true)` when it was `END`. Ends by
    /// framing everything the router has ready.
    fn step(&mut self, record: Option<Record>) -> ServerResult<bool> {
        match record {
            Some(Record::FlowOpen { key, entries_held }) => self.open(key, entries_held)?,
            Some(Record::FlowData { key, bytes }) => {
                let stats = &self.shared.stats;
                stats.records_in.fetch_add(1, Ordering::Relaxed);
                stats
                    .bytes_in
                    .fetch_add(bytes.len() as u64, Ordering::Relaxed);
                self.router.push(key, &bytes).map_err(flow_error)?;
            }
            Some(Record::FlowEnd { key }) => self.end(key, false)?,
            Some(Record::End) => return Ok(true),
            Some(other) => {
                return Err(ServerError::Protocol(format!(
                    "unexpected {} record on a multiplexed connection",
                    other.kind_name()
                )))
            }
            None => {}
        }
        self.router.emit_ready().map_err(flow_error)?;
        self.out.burst().flow_events(self.router.drain_events());
        Ok(false)
    }

    fn open(&mut self, key: FlowKey, entries_held: u64) -> ServerResult<()> {
        if !self.guard.register(key) {
            return Err(ServerError::Protocol(format!(
                "{key} is already being served on another connection"
            )));
        }
        let resume = self
            .router
            .open_flow(key, entries_held)
            .map_err(flow_error)?;
        self.out.burst().record(&Record::FlowOpened {
            key,
            resume: resume_hello(&resume),
        });
        // Replay and reseed stay tagged so interleaved flows never bleed
        // into each other's decoders.
        self.out.resume(Some(key), &resume.replay, &resume.reseed)
    }

    /// Finishes `key`'s flow: its tail events, then `FLOW_DONE`.
    fn end(&mut self, key: FlowKey, server_initiated: bool) -> ServerResult<()> {
        let finished = self.router.end_flow(key).map_err(flow_error)?;
        let mut burst = self.out.burst();
        burst.flow_events(self.router.drain_events());
        self.guard.release(key);
        let summary = &finished.summary;
        self.agg.bytes_in += summary.bytes_in;
        self.agg.payloads_emitted += summary.payloads_emitted;
        self.agg.wire_bytes += summary.wire_bytes;
        self.agg.compressed_payloads += summary.compressed_payloads;
        self.agg.control_updates += summary.control_updates;
        self.shared
            .stats
            .streams_completed
            .fetch_add(1, Ordering::Relaxed);
        burst.record(&Record::FlowDone {
            key,
            summary: done_summary(summary, server_initiated),
        });
        Ok(())
    }
}

/// Serves a multiplexed connection: one [`FlowRouter`] carrying many
/// tenant-scoped flows over one socket. See the module docs for the
/// lifecycle; error and shutdown semantics mirror [`serve_stream`] (an
/// error path drops the router, abandoning every flow at its last commit
/// boundary — crash semantics for the durable stores).
fn serve_flows<B>(
    shared: &Arc<Shared>,
    conn: &Conn,
    inbox: &mut Inbox,
    hello: &ClientHello,
) -> ServerResult<()>
where
    B: CompressionBackend + Send + 'static,
{
    let host = &shared.config.host;

    // Probe the backend shape once for negotiation; the router builds its
    // own per-flow instances.
    let (advertised, tags) = {
        let probe = B::from_engine_config(&host.engine).map_err(EngineError::Gd)?;
        (probe.codec_ids(), probe.tags_batches())
    };
    let version = negotiate_version(hello, &advertised, tags)?;
    let mut flow_config = FlowRouterConfig::new(host.engine);
    flow_config.batch_units = host.batch_chunks;
    flow_config.live_sync = host.live_sync;
    flow_config.pipeline_depth = host.pipeline_depth.unwrap_or(2);
    flow_config.durable_root = host.durable.clone();
    flow_config.checkpoint_cadence = host.checkpoint_cadence;
    flow_config.sync = host.sync;
    let mut router: FlowRouter<B> = FlowRouter::new(flow_config).map_err(flow_error)?;
    router.set_ready_signal(inbox.ready_signal());

    let out = Outbox::spawn(shared, conn)?;
    // Connection-level acknowledgement: no stream opens with the hello on a
    // multiplexed connection, so the resume fields are all zero.
    out.burst().record(&Record::ServerHello(ServerHello {
        version,
        resume_bytes_in: 0,
        replay_entries: 0,
        reseed_entries: 0,
        warm: false,
        codecs: advertised,
    }));
    out.flush()?;

    let mut session = FlowSession {
        shared,
        out: &out,
        router,
        guard: FlowSetGuard::new(Arc::clone(shared)),
        agg: StreamSummary::default(),
    };
    // An error drops the session, abandoning every unfinished flow.
    let client_ended = run_events(shared, inbox, &out, |record| session.step(record))?;
    // Finish the remaining flows in sorted key order (deterministic drain),
    // then answer with the aggregate totals.
    for key in session.router.active_keys() {
        session.end(key, true)?;
        out.flush_large()?;
    }
    out.burst()
        .record(&Record::Done(done_summary(&session.agg, !client_ended)));
    Ok(())
}
