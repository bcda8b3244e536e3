//! The engine's stream: records in, wire-ready payloads out, with batch
//! compression optionally overlapped with record accumulation.
//!
//! [`PipelinedStream`] adapts the batch-oriented [`CompressionEngine`] to
//! record-at-a-time producers such as the `zipline-traces` workload
//! iterators, for **any** [`CompressionBackend`]: records are buffered until
//! a batch's worth of backend units is available
//! ([`CompressionBackend::unit_bytes`] — GD chunks, or single bytes for the
//! deflate and passthrough backends), the batch goes through the backend,
//! and every resulting record is serialized as a wire-ready payload and
//! handed to the caller's sink. [`finish`](PipelinedStream::finish) flushes
//! the remainder (including a verbatim GD tail) and returns the engine with
//! the stream totals. The emitted payload sequence decodes through
//! [`EngineDecompressor::restore_payload_into`](crate::EngineDecompressor::restore_payload_into)
//! for the same backend (and, for GD, the same shard count) back to the
//! exact input bytes.
//!
//! # Inline and threaded backings
//!
//! Where the engine lives decides how batches compress:
//!
//! * **inline** — the engine stays on the calling thread and every batch
//!   compresses synchronously when it fills. This is the stream of an
//!   engine built without [`EngineBuilder::pipelined`](crate::EngineBuilder::pipelined),
//!   and of a pipelined one that may not spawn (see below);
//! * **threaded** — on a host that sits between NIC ingest and the wire
//!   (the deployment `zipline::host` models), compressing one batch while
//!   the next accumulates is exactly the overlap worth a core. The engine
//!   moves to a dedicated **engine worker thread**, fed over a *bounded*
//!   [`std::sync::mpsc::sync_channel`] whose capacity is the pipeline
//!   *depth* — when the worker falls behind, `push_record` blocks on the
//!   send, which is the backpressure that keeps memory proportional to
//!   `depth + 2` batches instead of the stream length. Batch buffers are
//!   **recycled**: each result carries its input and wire buffers home, and
//!   the caller reuses them for the next batch, so steady state allocates
//!   nothing beyond the per-batch delta `Vec` that live sync drains.
//!
//! Both backings stage a batch the same way (compress, drain the live-sync
//! [`DictionaryDelta`](crate::DictionaryDelta), serialize every payload into
//! a flat per-batch buffer) and emit it the same way, invoking the payload
//! and control sinks **on the calling thread**, in batch order — sinks
//! therefore need no `Send` bound.
//!
//! # Live decoder sync
//!
//! With a control sink attached ([`PipelinedStream::with_control_sink`])
//! the stream also hands every [`DictionaryUpdate`] to that sink,
//! *interleaved* with the data payloads: each update immediately before
//! the payload at whose position it happened. A control plane that
//! serializes each update onto the same in-order channel as the payloads
//! therefore guarantees that every compressed payload is preceded on the
//! wire by the install traffic that makes it decodable — even when the
//! dictionary churns past capacity and recycles identifiers. Delta-less
//! backends (deflate, passthrough) never produce updates, so an attached
//! control sink simply stays idle. The sink is attached at construction:
//! for the threaded backing journaling must be enabled before the engine
//! moves to the worker.
//!
//! # Emission rule and the ready signal
//!
//! A finished batch is emitted at the first of: the end of the next
//! [`push_record`](PipelinedStream::push_record) (every push ends with an
//! `emit_ready`), an explicit [`emit_ready`](PipelinedStream::emit_ready),
//! or [`finish`](PipelinedStream::finish). `emit_ready` never blocks: it
//! commits and emits every batch the worker has already returned, in FIFO
//! order, and nothing else.
//!
//! A caller that can go idle while batches are in flight — a socket
//! handler waiting for client input, say — must not wait for input alone:
//! the client may itself be waiting for those batches. It attaches a
//! [`ReadySignal`] with
//! [`set_ready_signal`](PipelinedStream::set_ready_signal) and waits on
//! *input or ready*. The contract:
//!
//! * the worker fires the signal on its own thread **after** it has sent
//!   each result (a finished batch or a parked error), so an `emit_ready`
//!   that starts after the signal fired always finds that result;
//! * the signal must never block the worker. It may drop a wake-up (a
//!   `try_send` into a full bounded channel), provided the caller calls
//!   `emit_ready` after *every* wake-up it handles, whatever woke it — then
//!   a dropped signal is harmless, because the wake-up that crowded it out
//!   is handled after the result was sent;
//! * the inline backing compresses at dispatch and never fires it.
//!
//! # Determinism
//!
//! The worker processes batches in FIFO order against the same engine state
//! the inline backing would have used, and both backings emit through the
//! same code, so the output — payload bytes *and* interleaved control
//! updates — is a pure function of `(data, shard count, batch size)`:
//! **bit-identical** across backings for every backend, spawn policy and
//! depth (enforced by `tests/pipelined_ingest.rs`, including churn
//! workloads with live sync).
//!
//! # Construction
//!
//! The stream takes the [`CompressionEngine`] **by value** and `finish`
//! hands it back, dictionary and all. [`EngineBuilder::pipelined`](crate::EngineBuilder::pipelined)
//! (validated at `build()`) opts in to the threaded backing; whether the
//! worker actually spawns follows the engine's [`SpawnPolicy`]:
//! [`SpawnPolicy::Auto`] spawns only when the host has more than one core,
//! so on a 1-core container the stream runs inline — no channel, no
//! thread, same bytes. On a multi-core host the worker compresses each
//! batch itself: `Auto` never fans a batch out further.
//!
//! ```
//! use zipline_engine::{EngineBuilder, PipelinedStream};
//!
//! let engine = EngineBuilder::new()
//!     .shards(4)
//!     .workers(2)
//!     .pipelined(2)
//!     .build()
//!     .unwrap();
//! let mut payloads = 0u64;
//! let mut stream = PipelinedStream::new(engine, 16, |_pt, _bytes| payloads += 1).unwrap();
//! stream.push_record(&[7u8; 32 * 40]).unwrap();
//! let (engine, summary) = stream.finish().unwrap();
//! assert_eq!(summary.payloads_emitted, payloads);
//! assert!(engine.stats().is_consistent());
//! ```
//!
//! # Durability (commit-then-emit)
//!
//! For an engine built with
//! [`EngineBuilder::durable`](crate::EngineBuilder::durable), the
//! [`EngineStore`] is detached at construction and held **caller-side**:
//! each finished batch is committed (frames + dictionary delta + commit
//! marker) on the emitting thread strictly before its first sink call, so
//! sinks only ever observe committed output. A crash at any point either
//! loses an uncommitted batch (whose input re-runs on resume) or leaves a
//! committed batch replayable from the store's
//! [`WarmStart`](crate::WarmStart) journal, never a half-emitted one. The
//! inline backing has the dictionary at hand, so its commits also carry a
//! full-state checkpoint whenever one is due — a warm restart then restores
//! bit-exactly. The threaded backing's dictionary lives on the worker, so
//! its mid-stream commits carry no checkpoint and recovery folds the delta
//! log instead. Either way [`finish`](PipelinedStream::finish) compacts the
//! store from the returned engine (one checkpoint) before re-attaching it.
//! Worker-side failures surface as typed [`EngineError`]s: a parked
//! compression error converts via `From<GdError>`, a worker that vanished
//! without one is [`EngineError::WorkerLost`], and a worker thread that
//! could not be started is [`EngineError::WorkerSpawn`].

use std::sync::mpsc::{sync_channel, Receiver, Sender, SyncSender};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;

use crate::backend::CompressionBackend;
use crate::engine::{CompressionEngine, GdBackend, SpawnPolicy};
use crate::error::{EngineError, Result};
use crate::persist::EngineStore;
use crate::registry::{CodecCursor, CodecId};
use crate::shard::DictionaryUpdate;
use zipline_gd::error::{GdError, Result as GdResult};
use zipline_gd::packet::PacketType;
use zipline_traces::ChunkWorkload;

/// Maximum accepted pipeline depth; a larger value is almost certainly a
/// units mistake (depth is *batches in flight*, not bytes).
pub const MAX_PIPELINE_DEPTH: usize = 1024;

/// Host parallelism, probed once per process:
/// `std::thread::available_parallelism` reads cgroup files on Linux
/// (~14 µs), which would otherwise tax every short-lived stream under
/// [`SpawnPolicy::Auto`].
fn host_cores() -> usize {
    static CORES: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CORES.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    })
}

/// Shape of the ingest pipeline, set by
/// [`EngineBuilder::pipelined`](crate::EngineBuilder::pipelined) and carried
/// on the built [`CompressionEngine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineConfig {
    /// Bounded channel capacity: filled batches allowed in flight between
    /// ingest and the engine worker before `push_record` blocks
    /// (backpressure). Depth 1 is classic double buffering: one batch
    /// queued, one compressing, one filling.
    pub depth: usize,
    /// Whether the stream may spawn its worker thread (inherited from the
    /// engine configuration at `build()`): [`SpawnPolicy::Auto`] spawns only
    /// on multi-core hosts, [`SpawnPolicy::Inline`] never does,
    /// [`SpawnPolicy::Threads`] always does.
    pub spawn: SpawnPolicy,
}

impl PipelineConfig {
    /// Checks internal consistency (depth in `1..=`[`MAX_PIPELINE_DEPTH`]).
    pub fn validate(&self) -> GdResult<()> {
        if self.depth == 0 || self.depth > MAX_PIPELINE_DEPTH {
            return Err(GdError::InvalidConfig(format!(
                "pipeline depth must be in 1..={MAX_PIPELINE_DEPTH}, got {}",
                self.depth
            )));
        }
        Ok(())
    }
}

/// Totals accumulated by a [`PipelinedStream`], returned by
/// [`PipelinedStream::finish`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StreamSummary {
    /// Record bytes pushed into the stream.
    pub bytes_in: u64,
    /// Wire payloads emitted to the sink.
    pub payloads_emitted: u64,
    /// Total wire bytes emitted to the sink.
    pub wire_bytes: u64,
    /// Payloads emitted in compressed (type 3) form.
    pub compressed_payloads: u64,
    /// Dictionary updates handed to the control sink (0 without live sync).
    pub control_updates: u64,
}

/// One batch travelling through the pipeline, in both directions: towards
/// the worker `input` holds the filled batch; on the way back `wire`,
/// `records` and `updates` hold the compressed result and `input` rides
/// along so the caller can recycle it. The `input`, `wire` and `records`
/// buffers are reused across the stream's lifetime; `updates` is the `Vec`
/// freshly allocated by `take_delta` each batch and is consumed by the
/// emission. The inline backing stages each batch in one shuttle too.
#[derive(Debug, Default)]
struct BatchShuttle {
    /// The batch's input bytes (a whole number of backend units, except for
    /// the final flush).
    input: Vec<u8>,
    /// Serialized payloads of the whole batch, concatenated.
    wire: Vec<u8>,
    /// `(packet type, payload length)` per record, in input order.
    records: Vec<(PacketType, u32)>,
    /// Dictionary updates journaled by this batch (empty without live sync).
    updates: Vec<DictionaryUpdate>,
    /// The batch's codec tag, captured worker-side from a tagging
    /// (multi-codec) backend; `None` for fixed backends.
    codec: Option<CodecId>,
}

/// Wake-up the engine worker fires after it sends each result; see the
/// module docs for the contract. It runs on the worker thread and must
/// never block.
pub type ReadySignal = Arc<dyn Fn() + Send + Sync>;

/// The stream's ready signal, shared with its worker so it can be attached
/// after the worker has started.
type ReadySlot = Arc<Mutex<Option<ReadySignal>>>;

/// The worker half of the threaded pipeline: owns the engine, compresses
/// shuttles in FIFO order, returns the engine when the job channel closes.
fn run_worker<B: CompressionBackend>(
    mut engine: CompressionEngine<B>,
    jobs: Receiver<BatchShuttle>,
    results: Sender<GdResult<BatchShuttle>>,
    ready: ReadySlot,
) -> CompressionEngine<B> {
    while let Ok(mut shuttle) = jobs.recv() {
        let outcome = compress_shuttle(&mut engine, &mut shuttle);
        let failed = outcome.is_err();
        // A send error means the caller is gone (dropped mid-stream); there
        // is nobody left to observe results, so just stop compressing.
        if results.send(outcome.map(|()| shuttle)).is_err() {
            break;
        }
        // Signal strictly after the send: whoever the signal wakes finds
        // the result already queued.
        let signal = ready.lock().unwrap_or_else(PoisonError::into_inner).clone();
        if let Some(signal) = signal {
            signal();
        }
        if failed {
            break;
        }
    }
    engine
}

/// Compresses one shuttle in place: batch → wire bytes + record index +
/// drained delta (compress, drain journal, serialize in input order). Both
/// backings stage every batch through here.
fn compress_shuttle<B: CompressionBackend>(
    engine: &mut CompressionEngine<B>,
    shuttle: &mut BatchShuttle,
) -> GdResult<()> {
    shuttle.wire.clear();
    shuttle.records.clear();
    shuttle.updates.clear();
    let batch = engine.compress_batch(&shuttle.input)?;
    let backend = engine.backend_mut();
    // Drain the journal even when no control sink consumes it, so a stream
    // without live sync on a journaling engine never leaks stale events
    // into a later batch's (or a later stream's) delta.
    if backend.live_sync_enabled() {
        shuttle.updates = backend.take_delta().updates;
    }
    // Resolve the tag before emit_batch consumes the batch by value.
    shuttle.codec = backend
        .tags_batches()
        .then(|| backend.batch_codec_id(&batch));
    let BatchShuttle { wire, records, .. } = shuttle;
    backend.emit_batch(batch, &mut |packet_type, bytes| {
        records.push((packet_type, bytes.len() as u32));
        wire.extend_from_slice(bytes);
    })
}

/// Caller-side state of the threaded pipeline.
struct Threaded<B: CompressionBackend> {
    /// Bounded: sending a filled batch blocks when `depth` batches are
    /// already queued — the stream's backpressure.
    jobs: SyncSender<BatchShuttle>,
    /// FIFO results; batch order is emission order.
    results: Receiver<GdResult<BatchShuttle>>,
    worker: JoinHandle<CompressionEngine<B>>,
    /// Recycled shuttles (input + wire buffers), refilled as results drain.
    spare: Vec<BatchShuttle>,
}

/// Where the engine lives for the stream's lifetime.
enum Backing<B: CompressionBackend> {
    /// The engine stays on the calling thread and every batch compresses
    /// synchronously at dispatch: an unpipelined engine, or a pipelined one
    /// whose spawn policy keeps it inline.
    Inline(Box<CompressionEngine<B>>),
    Threaded(Threaded<B>),
    /// Transient teardown state (after `finish`, or mid-`Drop`).
    Closed,
}

/// Streaming front-end over a [`CompressionEngine`], inline or threaded;
/// see the module docs.
pub struct PipelinedStream<F, G = fn(&DictionaryUpdate), B = GdBackend>
where
    F: FnMut(PacketType, &[u8]),
    G: FnMut(&DictionaryUpdate),
    B: CompressionBackend + Send + 'static,
{
    backing: Backing<B>,
    sink: F,
    /// Live-sync control sink, fed each dictionary update in wire order.
    control_sink: Option<G>,
    /// Bytes pushed but not yet dispatched (always shorter than a batch).
    buffer: Vec<u8>,
    /// Dispatch threshold in bytes (a whole number of backend units).
    batch_bytes: usize,
    summary: StreamSummary,
    /// Durable store, detached from the engine at construction and held on
    /// the **calling** thread: commit-then-emit happens where the sinks run,
    /// so sinks only ever observe committed batches, while a worker owns
    /// nothing but the engine. Only inline commits can carry a checkpoint
    /// (a threaded dictionary lives on the worker); `finish` compacts the
    /// store from the returned engine and re-attaches it.
    store: Option<EngineStore>,
    /// Reusable staging shuttle for the inline backing.
    inline_shuttle: BatchShuttle,
    /// When attached, publishes each batch's codec tag before its payloads
    /// reach the sink (see [`Self::set_codec_cursor`]).
    codec_cursor: Option<CodecCursor>,
    /// The ready signal the worker fires after each result (shared with it).
    ready: ReadySlot,
}

impl<F, B> PipelinedStream<F, fn(&DictionaryUpdate), B>
where
    F: FnMut(PacketType, &[u8]),
    B: CompressionBackend + Send + 'static,
{
    /// Creates a stream that dispatches a batch every `batch_units` backend
    /// units ([`CompressionBackend::unit_bytes`] each — chunks for GD, bytes
    /// for deflate/passthrough), emitting each wire payload to `sink` as
    /// `(packet type, payload bytes)` on the calling thread.
    ///
    /// The stream runs threaded only for an engine built with
    /// [`EngineBuilder::pipelined`](crate::EngineBuilder::pipelined) whose
    /// [`SpawnPolicy`] allows a worker; otherwise it runs inline. `finish`
    /// hands the engine back.
    pub fn new(engine: CompressionEngine<B>, batch_units: usize, sink: F) -> Result<Self> {
        Self::with_control_sink(engine, batch_units, sink, None)
    }
}

impl<F, G, B> PipelinedStream<F, G, B>
where
    F: FnMut(PacketType, &[u8]),
    G: FnMut(&DictionaryUpdate),
    B: CompressionBackend + Send + 'static,
{
    /// Creates a stream with an optional live-sync control sink. When
    /// `control_sink` is `Some`, journaling is enabled on the backend
    /// (before the engine moves to a worker) and every install/evict event
    /// is handed to the sink interleaved with the payloads, in the order a
    /// decoder must apply them (each update strictly before the payload at
    /// whose position it happened).
    ///
    /// Fails with [`EngineError::WorkerSpawn`] when the worker thread
    /// cannot be started; the engine is lost with it.
    pub fn with_control_sink(
        mut engine: CompressionEngine<B>,
        batch_units: usize,
        sink: F,
        control_sink: Option<G>,
    ) -> Result<Self> {
        // `Some(depth)` exactly when the stream runs its engine on a worker.
        let depth = match engine.pipeline() {
            Some(pipeline) => {
                pipeline.validate()?;
                let threaded = match pipeline.spawn {
                    SpawnPolicy::Inline => false,
                    SpawnPolicy::Threads => true,
                    SpawnPolicy::Auto => host_cores() > 1,
                };
                threaded.then_some(pipeline.depth)
            }
            None => None,
        };
        let unit_bytes = engine.backend().unit_bytes().max(1);
        if control_sink.is_some() {
            engine.set_live_sync(true);
        }
        // The store stays caller-side; only the engine crosses to the
        // worker thread.
        let store = engine.take_store();
        let ready = ReadySlot::default();
        let backing = match depth {
            Some(depth) => {
                let (jobs, job_rx) = sync_channel::<BatchShuttle>(depth);
                let (result_tx, results) = std::sync::mpsc::channel();
                let worker_ready = Arc::clone(&ready);
                let worker = std::thread::Builder::new()
                    .name("zipline-pipelined".into())
                    .spawn(move || run_worker(engine, job_rx, result_tx, worker_ready))
                    .map_err(EngineError::WorkerSpawn)?;
                Backing::Threaded(Threaded {
                    jobs,
                    results,
                    worker,
                    spare: Vec::new(),
                })
            }
            None => Backing::Inline(Box::new(engine)),
        };
        Ok(Self {
            backing,
            sink,
            control_sink,
            buffer: Vec::new(),
            batch_bytes: batch_units.max(1) * unit_bytes,
            summary: StreamSummary::default(),
            store,
            inline_shuttle: BatchShuttle::default(),
            codec_cursor: None,
            ready,
        })
    }

    /// Attaches a [`CodecCursor`] the stream publishes each batch's codec
    /// tag through. For a tagging backend
    /// ([`CompressionBackend::tags_batches`]) the cursor reads `Some(id)`
    /// while that batch's payloads flow to the sink; for a fixed backend it
    /// always reads `None` (untagged).
    pub fn set_codec_cursor(&mut self, cursor: CodecCursor) {
        self.codec_cursor = Some(cursor);
    }

    /// Attaches the [`ReadySignal`] the worker fires after each result it
    /// sends, replacing any earlier one; see the module docs for the
    /// contract. The inline backing never fires it.
    pub fn set_ready_signal(&mut self, signal: ReadySignal) {
        *self.ready.lock().unwrap_or_else(PoisonError::into_inner) = Some(signal);
    }

    /// True when the stream runs an engine worker thread (false on the
    /// inline backing: an engine built without
    /// [`EngineBuilder::pipelined`](crate::EngineBuilder::pipelined), a
    /// single-core host under [`SpawnPolicy::Auto`], or
    /// [`SpawnPolicy::Inline`]).
    pub fn is_threaded(&self) -> bool {
        matches!(self.backing, Backing::Threaded(_))
    }

    /// Appends one record (any number of bytes) to the stream, dispatching
    /// a batch to the engine whenever enough units have accumulated, then
    /// emits every batch already finished ([`emit_ready`](Self::emit_ready)).
    /// Blocks only when `depth` batches are already in flight
    /// (backpressure).
    pub fn push_record(&mut self, bytes: &[u8]) -> Result<()> {
        self.summary.bytes_in += bytes.len() as u64;
        // Fill up to one batch at a time so a record larger than the batch
        // streams through batch-sized dispatches: peak memory stays
        // proportional to the batch size, never the record size.
        let mut rest = bytes;
        while !rest.is_empty() {
            let room = self.batch_bytes - self.buffer.len();
            let take = room.min(rest.len());
            self.buffer.extend_from_slice(&rest[..take]);
            rest = &rest[take..];
            if self.buffer.len() >= self.batch_bytes {
                self.dispatch_batch()?;
            }
        }
        self.emit_ready()
    }

    /// Commits and emits, in FIFO order, every batch the worker has already
    /// finished; never blocks. A no-op on the inline backing, which emits
    /// each batch at dispatch. A compression error the worker parked
    /// surfaces here.
    pub fn emit_ready(&mut self) -> Result<()> {
        let Self {
            backing,
            sink,
            control_sink,
            summary,
            store,
            codec_cursor,
            ..
        } = self;
        let Backing::Threaded(threaded) = backing else {
            return Ok(());
        };
        // Both TryRecvError variants just mean "nothing to emit"; a worker
        // that stopped on an error parked it here first.
        while let Ok(result) = threaded.results.try_recv() {
            let mut shuttle = result?;
            emit_shuttle(
                &mut shuttle,
                store.as_mut(),
                None::<&B>,
                codec_cursor.as_ref(),
                sink,
                control_sink,
                summary,
            )?;
            threaded.spare.push(shuttle);
        }
        Ok(())
    }

    /// Feeds every chunk of a workload generator through the stream.
    pub fn consume_workload(&mut self, workload: &dyn ChunkWorkload) -> Result<()> {
        for chunk in workload.chunks() {
            self.push_record(&chunk)?;
        }
        Ok(())
    }

    /// Hands the current fill buffer to the engine. Inline: compresses and
    /// emits on the spot. Threaded: emits any finished batches first
    /// (non-blocking; keeps result memory bounded and refills the shuttle
    /// pool), then sends the buffer to the worker, blocking only when the
    /// pipeline is `depth` batches deep.
    fn dispatch_batch(&mut self) -> Result<()> {
        self.emit_ready()?;
        let Self {
            backing,
            sink,
            control_sink,
            buffer,
            summary,
            store,
            inline_shuttle,
            codec_cursor,
            ..
        } = self;
        match backing {
            Backing::Inline(engine) => {
                std::mem::swap(&mut inline_shuttle.input, buffer);
                buffer.clear();
                compress_shuttle(engine, inline_shuttle)?;
                emit_shuttle(
                    inline_shuttle,
                    store.as_mut(),
                    Some(engine.backend()),
                    codec_cursor.as_ref(),
                    sink,
                    control_sink,
                    summary,
                )?;
                Ok(())
            }
            Backing::Threaded(threaded) => {
                let mut shuttle = threaded.spare.pop().unwrap_or_default();
                std::mem::swap(&mut shuttle.input, buffer);
                buffer.clear();
                if threaded.jobs.send(shuttle).is_err() {
                    // The worker exited early: the only cause is a
                    // compression error, which it parked in the results
                    // channel before stopping.
                    return Err(Self::collect_worker_error(threaded));
                }
                Ok(())
            }
            Backing::Closed => unreachable!("dispatch after finish"),
        }
    }

    /// Fishes the worker's parked error out of the results channel. A
    /// worker that died without parking one (a torn-down thread, not a
    /// compression failure) surfaces as the typed
    /// [`EngineError::WorkerLost`] instead of an ad-hoc string.
    fn collect_worker_error(threaded: &Threaded<B>) -> EngineError {
        while let Ok(result) = threaded.results.recv() {
            if let Err(e) = result {
                return e.into();
            }
        }
        EngineError::WorkerLost
    }

    /// Flushes everything still buffered (for GD, a trailing partial chunk
    /// is emitted verbatim as a type 1 payload), drains the pipeline, joins
    /// the worker and returns the engine together with the stream totals.
    /// On a durable engine the shard store — held caller-side for the
    /// stream's lifetime — is compacted from the returned engine's
    /// dictionary and re-attached, so a subsequent warm restart rehydrates
    /// from one checkpoint instead of folding the whole delta log.
    pub fn finish(mut self) -> Result<(CompressionEngine<B>, StreamSummary)> {
        if !self.buffer.is_empty() {
            self.dispatch_batch()?;
        }
        let Self {
            backing,
            sink,
            control_sink,
            summary,
            store,
            codec_cursor,
            ..
        } = &mut self;
        let mut engine = match std::mem::replace(backing, Backing::Closed) {
            Backing::Inline(engine) => *engine,
            Backing::Threaded(threaded) => {
                let Threaded {
                    jobs,
                    results,
                    worker,
                    ..
                } = threaded;
                // Closing the job channel tells the worker to drain and
                // exit; the exhaustive result drain below preserves batch
                // order.
                drop(jobs);
                let mut failure: Option<EngineError> = None;
                for result in results.iter() {
                    match result {
                        Ok(mut shuttle) => {
                            if let Err(e) = emit_shuttle(
                                &mut shuttle,
                                store.as_mut(),
                                None::<&B>,
                                codec_cursor.as_ref(),
                                sink,
                                control_sink,
                                summary,
                            ) {
                                failure = Some(e);
                                break;
                            }
                        }
                        Err(e) => {
                            failure = Some(e.into());
                            break;
                        }
                    }
                }
                let engine = match worker.join() {
                    Ok(engine) => engine,
                    Err(panic) => std::panic::resume_unwind(panic),
                };
                if let Some(e) = failure {
                    return Err(e);
                }
                engine
            }
            Backing::Closed => unreachable!("finish called twice"),
        };
        if let Some(mut store) = store.take() {
            if let Some(state) = engine.backend().export_dictionary_state() {
                store.compact(&state)?;
            }
            engine.attach_store(store);
        }
        Ok((engine, *summary))
    }
}

/// Commits (when durable) then emits one finished batch: walks its payloads
/// in input order, handing every dictionary update to the control sink
/// strictly before the payload at whose position it happened. The commit
/// happens strictly before the first sink call, so a crash between them
/// re-emits from the store's journal rather than losing the batch.
/// `dictionary` is the engine's backend when it is at hand (the inline
/// backing): commits then carry a full-state checkpoint whenever one is
/// due.
fn emit_shuttle<F, G, B>(
    shuttle: &mut BatchShuttle,
    store: Option<&mut EngineStore>,
    dictionary: Option<&B>,
    cursor: Option<&CodecCursor>,
    sink: &mut F,
    control_sink: &mut Option<G>,
    summary: &mut StreamSummary,
) -> Result<()>
where
    F: FnMut(PacketType, &[u8]),
    G: FnMut(&DictionaryUpdate),
    B: CompressionBackend,
{
    if let Some(store) = store {
        let state = match dictionary {
            Some(backend) if store.checkpoint_due() => backend.export_dictionary_state(),
            _ => None,
        };
        store.commit_batch(
            &shuttle.records,
            &shuttle.wire,
            shuttle.codec,
            &shuttle.updates,
            state.as_ref(),
            shuttle.input.len() as u64,
        )?;
    }
    if let Some(cursor) = cursor {
        cursor.set(shuttle.codec);
    }
    let mut updates = std::mem::take(&mut shuttle.updates).into_iter().peekable();
    let mut offset = 0usize;
    for (at, &(packet_type, len)) in (0u64..).zip(&shuttle.records) {
        if let Some(control_sink) = control_sink.as_mut() {
            while let Some(update) = updates.next_if(|u| u.at <= at) {
                summary.control_updates += 1;
                control_sink(&update);
            }
        }
        let end = offset + len as usize;
        if packet_type == PacketType::Compressed {
            summary.compressed_payloads += 1;
        }
        summary.payloads_emitted += 1;
        summary.wire_bytes += u64::from(len);
        sink(packet_type, &shuttle.wire[offset..end]);
        offset = end;
    }
    // Updates positioned after the last payload (normally none) still
    // drain, so the delta is always fully delivered.
    if let Some(control_sink) = control_sink.as_mut() {
        for update in updates {
            summary.control_updates += 1;
            control_sink(&update);
        }
    }
    Ok(())
}

impl<F, G, B> Drop for PipelinedStream<F, G, B>
where
    F: FnMut(PacketType, &[u8]),
    G: FnMut(&DictionaryUpdate),
    B: CompressionBackend + Send + 'static,
{
    /// Dropping the stream without [`finish`](Self::finish) abandons it:
    /// the job channel closes, the worker drains its queue and exits, and
    /// the engine (plus any undelivered output) is discarded. No payloads
    /// are emitted from `drop` — emission is exclusively a `finish`
    /// concern, so a panicking caller never observes half a stream.
    fn drop(&mut self) {
        if let Backing::Threaded(threaded) = std::mem::replace(&mut self.backing, Backing::Closed) {
            let Threaded {
                jobs,
                results,
                worker,
                ..
            } = threaded;
            drop(jobs);
            // Unblock the worker if it is mid-send, then wait for it.
            for _ in results.iter() {}
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{DeflateBackend, PassthroughBackend};
    use crate::builder::EngineBuilder;

    /// 4 shards, 2 workers, the given spawn policy.
    fn test_builder(spawn: SpawnPolicy) -> EngineBuilder {
        EngineBuilder::new().shards(4).workers(2).spawn(spawn)
    }

    fn collect_pipelined(
        builder: EngineBuilder,
        batch_units: usize,
        data: &[u8],
    ) -> Vec<(PacketType, Vec<u8>)> {
        let engine = builder.build().unwrap();
        let mut emitted = Vec::new();
        let mut stream = PipelinedStream::new(engine, batch_units, |pt, bytes: &[u8]| {
            emitted.push((pt, bytes.to_vec()));
        })
        .unwrap();
        stream.push_record(data).unwrap();
        stream.finish().unwrap();
        emitted
    }

    /// An engine built without `pipelined()` streams inline, byte-identical
    /// to a `pipelined(1)` engine that may not spawn.
    #[test]
    fn unpipelined_engine_streams_inline_like_a_pipelined_one() {
        let data: Vec<u8> = (0..32 * 200 + 5).map(|i| (i / 640) as u8).collect();
        let builder = || test_builder(SpawnPolicy::Inline);
        let stream = PipelinedStream::new(builder().build().unwrap(), 16, |_, _| {}).unwrap();
        assert!(!stream.is_threaded());
        drop(stream);
        let unpipelined = collect_pipelined(builder(), 16, &data);
        let pipelined = collect_pipelined(builder().pipelined(1), 16, &data);
        assert_eq!(unpipelined, pipelined);
        assert!(!unpipelined.is_empty());
    }

    #[test]
    fn threaded_and_inline_modes_agree() {
        let data: Vec<u8> = (0..32 * 200).map(|i| (i / 640) as u8).collect();
        let inline = collect_pipelined(test_builder(SpawnPolicy::Inline).pipelined(2), 16, &data);
        let threaded =
            collect_pipelined(test_builder(SpawnPolicy::Threads).pipelined(2), 16, &data);
        assert_eq!(inline, threaded);
        assert!(!inline.is_empty());
    }

    #[test]
    fn spawn_policy_controls_threading() {
        let engine = EngineBuilder::new().pipelined(1).build().unwrap();
        // paper_default is Auto: threading depends on the host, but the
        // stream must report whichever mode it chose.
        let stream = PipelinedStream::new(engine, 16, |_, _| {}).unwrap();
        assert_eq!(stream.is_threaded(), host_cores() > 1);
        drop(stream);

        let engine = EngineBuilder::new()
            .spawn(SpawnPolicy::Threads)
            .pipelined(1)
            .build()
            .unwrap();
        let stream = PipelinedStream::new(engine, 16, |_, _| {}).unwrap();
        assert!(stream.is_threaded());
    }

    #[test]
    fn ready_signal_lets_emit_ready_deliver_a_batch_without_more_input() {
        let engine = test_builder(SpawnPolicy::Threads)
            .pipelined(2)
            .build()
            .unwrap();
        let payloads = std::cell::Cell::new(0usize);
        let mut stream =
            PipelinedStream::new(engine, 8, |_, _| payloads.set(payloads.get() + 1)).unwrap();
        let (wake, woken) = std::sync::mpsc::channel();
        stream.set_ready_signal(Arc::new(move || {
            let _ = wake.send(());
        }));
        // Exactly one batch: it dispatches, and nothing follows it.
        stream.push_record(&[5u8; 32 * 8]).unwrap();
        while payloads.get() == 0 {
            woken
                .recv_timeout(std::time::Duration::from_secs(10))
                .expect("the worker signals its finished batch");
            stream.emit_ready().unwrap();
        }
        assert_eq!(payloads.get(), 8, "one payload per chunk of the batch");
        let (_, summary) = stream.finish().unwrap();
        assert_eq!(summary.payloads_emitted, 8);
    }

    #[test]
    fn inline_streams_emit_at_dispatch_and_never_signal() {
        let engine = EngineBuilder::new()
            .spawn(SpawnPolicy::Inline)
            .pipelined(1)
            .build()
            .unwrap();
        let payloads = std::cell::Cell::new(0usize);
        let mut stream =
            PipelinedStream::new(engine, 8, |_, _| payloads.set(payloads.get() + 1)).unwrap();
        stream.set_ready_signal(Arc::new(|| panic!("inline streams never signal")));
        stream.push_record(&[5u8; 32 * 8]).unwrap();
        assert_eq!(payloads.get(), 8, "the batch emitted at dispatch");
        stream.emit_ready().unwrap();
        stream.finish().unwrap();
    }

    #[test]
    fn finish_returns_the_engine_with_its_dictionary_state() {
        let engine = test_builder(SpawnPolicy::Threads)
            .pipelined(2)
            .build()
            .unwrap();
        let mut stream = PipelinedStream::new(engine, 8, |_, _| {}).unwrap();
        stream.push_record(&[9u8; 32 * 64]).unwrap();
        let (engine, summary) = stream.finish().unwrap();
        assert_eq!(summary.bytes_in, 32 * 64);
        assert_eq!(engine.stats().bases_learned, 1);
        assert_eq!(engine.stats().chunks_in, 64);
    }

    #[test]
    fn stream_emits_payloads_that_restore_to_the_input() {
        let builder = test_builder(SpawnPolicy::Inline);
        let mut dec = builder.build_decompressor().unwrap();
        let mut emitted: Vec<(PacketType, Vec<u8>)> = Vec::new();
        let mut stream = PipelinedStream::new(builder.build().unwrap(), 16, |pt, bytes: &[u8]| {
            emitted.push((pt, bytes.to_vec()));
        })
        .unwrap();

        let mut input = Vec::new();
        for i in 0..150u32 {
            let mut record = [0u8; 32];
            record[0] = (i % 4) as u8;
            record[20] = 0xBE;
            stream.push_record(&record).unwrap();
            input.extend_from_slice(&record);
        }
        // A ragged final record exercises the verbatim tail.
        stream.push_record(&[1, 2, 3]).unwrap();
        input.extend_from_slice(&[1, 2, 3]);
        let (_, summary) = stream.finish().unwrap();

        assert_eq!(summary.bytes_in, input.len() as u64);
        assert_eq!(summary.payloads_emitted, emitted.len() as u64);
        assert_eq!(
            summary.wire_bytes,
            emitted.iter().map(|(_, b)| b.len() as u64).sum::<u64>()
        );
        assert!(summary.compressed_payloads > 140, "most chunks deduplicate");

        let mut restored = Vec::new();
        for (pt, bytes) in &emitted {
            dec.restore_payload_into(*pt, bytes, &mut restored).unwrap();
        }
        assert_eq!(restored, input);
    }

    #[test]
    fn plain_stream_on_a_journaling_engine_drains_stale_updates() {
        let engine = test_builder(SpawnPolicy::Inline)
            .live_sync(true)
            .build()
            .unwrap();
        // A stream without a control sink must not leave the journal to leak
        // into a later live-synced stream's delta.
        let mut stream = PipelinedStream::new(engine, 4, |_, _| {}).unwrap();
        stream.push_record(&[7u8; 32 * 6]).unwrap();
        let (engine, summary) = stream.finish().unwrap();
        assert_eq!(summary.control_updates, 0);

        let mut updates = Vec::new();
        let mut stream = PipelinedStream::with_control_sink(
            engine,
            4,
            |_, _| {},
            Some(|u: &DictionaryUpdate| updates.push(u.clone())),
        )
        .unwrap();
        // The same basis again: known, so the live stream journals nothing
        // new — stale events from the first stream must be gone.
        stream.push_record(&[7u8; 32 * 2]).unwrap();
        stream.finish().unwrap();
        assert!(updates.is_empty(), "no stale updates leak across streams");
    }

    #[test]
    fn small_batches_and_large_records_flush_incrementally() {
        let engine = test_builder(SpawnPolicy::Inline).build().unwrap();
        let mut count = 0usize;
        let mut stream = PipelinedStream::new(engine, 1, |_, _| count += 1).unwrap();
        // One push covering many chunks flushes as many batches as needed,
        // each emitted before the push returns.
        stream.push_record(&[0u8; 32 * 10]).unwrap();
        let (engine, _) = stream.finish().unwrap();
        assert_eq!(count, 10);
        assert_eq!(engine.stats().bases_learned, 1);
    }

    #[test]
    fn deflate_stream_batches_by_bytes_and_roundtrips() {
        let engine = EngineBuilder::new()
            .backend(DeflateBackend::default())
            .build()
            .unwrap();
        let mut members: Vec<Vec<u8>> = Vec::new();
        // unit_bytes == 1, so batch_units is a byte count: 4 KiB members.
        let mut stream = PipelinedStream::new(engine, 4096, |pt, bytes: &[u8]| {
            assert_eq!(pt, PacketType::Raw);
            members.push(bytes.to_vec());
        })
        .unwrap();
        let data: Vec<u8> = (0..10_000u32).map(|i| (i % 19) as u8).collect();
        stream.push_record(&data).unwrap();
        let (engine, summary) = stream.finish().unwrap();
        assert_eq!(summary.bytes_in, data.len() as u64);
        assert_eq!(members.len(), 3, "10000 B split into 4096-byte batches");
        assert!(summary.wire_bytes < data.len() as u64, "gzip compresses");

        let mut dec = engine.decompressor().unwrap();
        let mut restored = Vec::new();
        for member in &members {
            dec.restore_payload_into(PacketType::Raw, member, &mut restored)
                .unwrap();
        }
        assert_eq!(restored, data);
    }

    #[test]
    fn passthrough_stream_is_the_wire_floor() {
        let engine = EngineBuilder::new()
            .backend(PassthroughBackend::new())
            .build()
            .unwrap();
        let mut wire = Vec::new();
        let mut stream = PipelinedStream::new(engine, 512, |_, bytes: &[u8]| {
            wire.extend_from_slice(bytes);
        })
        .unwrap();
        let data = vec![0xA5u8; 2000];
        stream.push_record(&data).unwrap();
        let (_, summary) = stream.finish().unwrap();
        assert_eq!(wire, data, "passthrough is the identity on the wire");
        assert_eq!(summary.wire_bytes, summary.bytes_in, "ratio floor is 1.0");
        assert_eq!(summary.compressed_payloads, 0);
    }
}
