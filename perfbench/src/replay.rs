//! The traced run's in-process layers, timed from outside the program:
//!
//! * a replay of the workload's inputs on the socket run's paced schedule,
//!   then as fast as possible, through a `PipelinedStream` and a
//!   `FlowRouter` built from `HostPathConfig::engine_builder()` — with
//!   sinks that frame every emission with `WireCodec`, the calls the
//!   server makes;
//! * isolated per-batch calls on the same batches: the engine, the
//!   auto router, a one-shard `GdCompressor`, `gzip_compress_into` and
//!   `EngineStore::commit_batch` with `SyncPolicy::Data`.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::time::{Duration, Instant};

use zipline::host::HostPathConfig;
use zipline_deflate::Level;
use zipline_engine::{
    AutoBackend, CodecCursor, CodecId, CompressionBackend, CompressionEngine, EngineStore, FlowKey,
    FlowRouter, FlowRouterConfig, GdBackend, PipelinedStream, StoreOptions, SyncPolicy,
    CODEC_DEFLATE, CODEC_GD, CODEC_HYBRID,
};
use zipline_gd::codec::GdCompressor;
use zipline_gd::packet::PacketType;
use zipline_server::WireCodec;

use crate::inputs::{Inputs, Record, Workload, CLASSIC, RECORD_BYTES};
use crate::report::{quantile, Metrics};

/// Records the flood replays push (8 MiB of input).
const FLOOD_RECORDS: usize = 1 << 18;

/// Batches the isolated per-batch calls run over.
const ISOLATED_BATCHES: usize = 256;

/// The flow a single-stream workload's records take through the router.
const SINGLE_FLOW: FlowKey = FlowKey { tenant: 0, flow: 1 };

/// Shape of the in-process part of a traced run.
pub struct Plan {
    /// The socket run's paced rate, records per second.
    pub rate: f64,
    /// Seconds of paced replay.
    pub paced_seconds: f64,
    /// Scratch directory for durable stores.
    pub work: PathBuf,
}

fn err<E: std::fmt::Display>(context: &str) -> impl Fn(E) -> String + '_ {
    move |e| format!("{context}: {e}")
}

/// Runs every in-process layer for `workload` and records its metrics.
pub fn run(workload: Workload, seed: u64, plan: &Plan, m: &mut Metrics) -> Result<(), String> {
    let paced = Inputs::new(workload, seed, crate::PHASE_PACED);
    let flood = Inputs::new(workload, seed, crate::PHASE_FLOOD);
    let paced_n = (plan.rate * plan.paced_seconds).round() as usize;
    let paced_records: Vec<Record> = paced.records().take(paced_n).collect();
    let flood_records: Vec<Record> = flood.records().take(FLOOD_RECORDS).collect();
    let host = workload.host_config(None);
    let batch_records = host.batch_chunks;
    let isolated = paced.flat(ISOLATED_BATCHES * batch_records);

    let replay = Replay {
        workload,
        plan,
        paced: &paced_records,
        flood: &flood_records,
        keys: keys_or_single(&paced),
        flood_keys: keys_or_single(&flood),
        isolated: &isolated,
    };
    let auto = match workload.backend() {
        "auto" => replay.layers::<AutoBackend>(m)?,
        _ => {
            replay.layers::<GdBackend>(m)?;
            // Where auto would route the same batches.
            isolated_engine::<AutoBackend>(&host, &isolated, None, &mut Metrics::new())?
        }
    };
    auto_metrics(auto, m);
    gd_and_deflate(&host, &isolated, m)
}

/// Flows keep their keys; a single-stream workload runs as one flow.
fn keys_or_single(inputs: &Inputs) -> Vec<FlowKey> {
    let keys = inputs.flow_keys();
    if keys.is_empty() {
        vec![SINGLE_FLOW]
    } else {
        keys
    }
}

/// The inputs of one in-process replay.
struct Replay<'a> {
    workload: Workload,
    plan: &'a Plan,
    paced: &'a [Record],
    flood: &'a [Record],
    keys: Vec<FlowKey>,
    flood_keys: Vec<FlowKey>,
    isolated: &'a [u8],
}

impl Replay<'_> {
    /// A durable store directory under the scratch directory, for a
    /// durable workload only.
    fn durable(&self, name: &str) -> Option<PathBuf> {
        self.workload.durable().then(|| self.plan.work.join(name))
    }

    /// The pipeline, router and engine layers over backend `B`; returns
    /// the isolated engine pass for its routing decisions.
    fn layers<B: CompressionBackend + Send + 'static>(
        &self,
        m: &mut Metrics,
    ) -> Result<EnginePass<B>, String> {
        let host = self.workload.host_config(None);
        pipelined::<B>(
            &self.workload.host_config(self.durable("pipelined-paced")),
            &self.workload.host_config(self.durable("pipelined-flood")),
            self.paced,
            self.flood,
            self.plan.rate,
            m,
        )?;
        flows::<B>(self, &host, m)?;
        isolated_engine::<B>(&host, self.isolated, Some(&self.plan.work), m)
    }
}

/// Backend units one payload restores: a container (deflate or hybrid
/// member) holds a whole batch, a GD payload one chunk.
fn payload_units(tag: Option<CodecId>, packet_type: PacketType, batch_units: u64) -> u64 {
    match tag {
        Some(id) if id == CODEC_DEFLATE || id == CODEC_HYBRID => batch_units,
        _ => u64::from(packet_type != PacketType::Raw),
    }
}

/// Emission bookkeeping of one stream: the first sink call of every batch
/// and the time spent inside the sinks.
struct EmitTrack {
    batch_units: u64,
    emitted_units: u64,
    first_call: Option<Instant>,
    firsts: Vec<Instant>,
    /// Push times of the records that completed each batch.
    pushes: Vec<Instant>,
    pushed: u64,
    sink_ns: u64,
    events: u64,
}

impl EmitTrack {
    fn new(batch_units: usize) -> Self {
        Self {
            batch_units: batch_units as u64,
            emitted_units: 0,
            first_call: None,
            firsts: Vec::new(),
            pushes: Vec::new(),
            pushed: 0,
            sink_ns: 0,
            events: 0,
        }
    }

    fn pushed(&mut self, at: Instant) {
        self.pushed += 1;
        if self.pushed.is_multiple_of(self.batch_units) {
            self.pushes.push(at);
        }
    }

    fn control(&mut self, at: Instant) {
        self.events += 1;
        if self.emitted_units.is_multiple_of(self.batch_units) {
            self.first_call.get_or_insert(at);
        }
    }

    fn payload(&mut self, units: u64, at: Instant) {
        self.events += 1;
        if self.emitted_units.is_multiple_of(self.batch_units) {
            let first = self.first_call.take().unwrap_or(at);
            self.firsts.push(first);
        }
        self.emitted_units += units;
    }

    /// Push-to-first-emission delay of every full batch, in milliseconds.
    fn delays_ms(&self) -> impl Iterator<Item = f64> + '_ {
        self.pushes
            .iter()
            .zip(&self.firsts)
            .map(|(push, first)| first.saturating_duration_since(*push).as_secs_f64() * 1e3)
    }
}

fn sleep_until(due: Instant) {
    let wait = due.saturating_duration_since(Instant::now());
    if !wait.is_zero() {
        std::thread::sleep(wait);
    }
}

/// `PipelinedStream` with framing sinks: paced for the emit delay, then
/// flooded for push cost, blocking and finish time.
fn pipelined<B: CompressionBackend + Send + 'static>(
    paced_host: &HostPathConfig,
    flood_host: &HostPathConfig,
    paced: &[Record],
    flood: &[Record],
    rate: f64,
    m: &mut Metrics,
) -> Result<(), String> {
    // Paced: the socket run's schedule.
    let track = Rc::new(RefCell::new(EmitTrack::new(paced_host.batch_chunks)));
    let mut stream = framing_stream::<B>(paced_host, &track)?;
    let t0 = Instant::now();
    for (i, record) in paced.iter().enumerate() {
        sleep_until(t0 + Duration::from_secs_f64(i as f64 / rate));
        let at = Instant::now();
        stream
            .push_record(&record.bytes)
            .map_err(err("pipelined push"))?;
        track.borrow_mut().pushed(at);
    }
    stream.finish().map_err(err("pipelined finish"))?;
    let delays: Vec<f64> = track.borrow().delays_ms().collect();
    m.insert("pipelined.emit_delay_ms_p50", quantile(&delays, 0.50));
    m.insert("pipelined.emit_delay_ms_p99", quantile(&delays, 0.99));

    // Flood: as fast as pushes return.
    let track = Rc::new(RefCell::new(EmitTrack::new(flood_host.batch_chunks)));
    let mut stream = framing_stream::<B>(flood_host, &track)?;
    let batch = flood_host.batch_chunks;
    let mut dispatch = Duration::ZERO;
    let started = Instant::now();
    for (i, record) in flood.iter().enumerate() {
        if (i + 1) % batch == 0 {
            let at = Instant::now();
            stream
                .push_record(&record.bytes)
                .map_err(err("pipelined push"))?;
            dispatch += at.elapsed();
        } else {
            stream
                .push_record(&record.bytes)
                .map_err(err("pipelined push"))?;
        }
    }
    let pushing = started.elapsed();
    let sink_ns = track.borrow().sink_ns;
    let finishing = Instant::now();
    stream.finish().map_err(err("pipelined finish"))?;
    m.insert(
        "pipelined.finish_ms",
        finishing.elapsed().as_secs_f64() * 1e3,
    );
    m.insert(
        "pipelined.push_ns_per_rec",
        pushing.as_nanos() as f64 / flood.len() as f64,
    );
    m.insert(
        "pipelined.block_ms",
        dispatch
            .saturating_sub(Duration::from_nanos(sink_ns))
            .as_secs_f64()
            * 1e3,
    );
    Ok(())
}

type Sink = Box<dyn FnMut(PacketType, &[u8])>;
type ControlSink = Box<dyn FnMut(&zipline_engine::DictionaryUpdate)>;

/// A pipelined stream whose sinks frame every emission as the server's
/// do and log it into `track`.
fn framing_stream<B: CompressionBackend + Send + 'static>(
    host: &HostPathConfig,
    track: &Rc<RefCell<EmitTrack>>,
) -> Result<PipelinedStream<Sink, ControlSink, B>, String> {
    let backend = B::from_engine_config(&host.engine).map_err(err("backend"))?;
    let engine = host
        .engine_builder()
        .backend(backend)
        .build()
        .map_err(err("engine"))?;
    let live =
        engine.live_sync_enabled() || (host.live_sync && engine.backend().supports_live_sync());
    let codec = Rc::new(RefCell::new(WireCodec::new()));
    let cursor = CodecCursor::new();
    let units = host.batch_chunks as u64;
    let sink: Sink = {
        let (codec, track, cursor) = (Rc::clone(&codec), Rc::clone(track), cursor.clone());
        Box::new(move |packet_type, bytes| {
            let at = Instant::now();
            let tag = cursor.get();
            black_box(codec.borrow_mut().encode_payload(tag, packet_type, bytes));
            let mut track = track.borrow_mut();
            track.payload(payload_units(tag, packet_type, units), at);
            track.sink_ns += at.elapsed().as_nanos() as u64;
        })
    };
    let control: ControlSink = {
        let (codec, track) = (Rc::clone(&codec), Rc::clone(track));
        Box::new(move |update| {
            let at = Instant::now();
            black_box(codec.borrow_mut().encode_control(update));
            let mut track = track.borrow_mut();
            track.control(at);
            track.sink_ns += at.elapsed().as_nanos() as u64;
        })
    };
    let mut stream = PipelinedStream::with_control_sink(
        engine,
        host.batch_chunks,
        sink,
        live.then_some(control),
    )
    .map_err(err("pipelined stream"))?;
    stream.set_codec_cursor(cursor);
    Ok(stream)
}

/// The router `serve_flows` builds from the host configuration.
fn router<B: CompressionBackend + Send + 'static>(
    host: &HostPathConfig,
    durable: Option<PathBuf>,
) -> Result<FlowRouter<B>, String> {
    let mut config = FlowRouterConfig::new(host.engine);
    config.batch_units = host.batch_chunks;
    config.live_sync = host.live_sync;
    config.pipeline_depth = host.pipeline_depth.unwrap_or(2);
    config.durable_root = durable;
    config.checkpoint_cadence = host.checkpoint_cadence;
    config.sync = host.sync;
    FlowRouter::new(config).map_err(err("flow router"))
}

/// Frames every drained router event and logs it per flow.
fn frame_events<B: CompressionBackend + Send + 'static>(
    router: &mut FlowRouter<B>,
    codec: &mut WireCodec,
    tracks: &mut HashMap<FlowKey, EmitTrack>,
    units: u64,
) {
    let events = router.drain_events();
    if events.is_empty() {
        return;
    }
    let at = Instant::now();
    for event in events {
        let key = event.key();
        let track = tracks.get_mut(&key).expect("events come from opened flows");
        match &event {
            zipline_engine::FlowEvent::Payload {
                key,
                packet_type,
                codec: tag,
                bytes,
            } => {
                black_box(codec.encode_flow_payload(*key, *tag, *packet_type, bytes));
                track.payload(payload_units(*tag, *packet_type, units), at);
            }
            zipline_engine::FlowEvent::Control { key, update } => {
                black_box(codec.encode_flow_control(*key, update));
                track.control(at);
            }
        }
    }
}

/// `FlowRouter` over the same records: open cost, paced emit delay, then
/// flooded push cost and events per record.
fn flows<B: CompressionBackend + Send + 'static>(
    replay: &Replay<'_>,
    host: &HostPathConfig,
    m: &mut Metrics,
) -> Result<(), String> {
    let Replay {
        paced,
        flood,
        keys,
        flood_keys,
        plan,
        ..
    } = replay;
    let units = host.batch_chunks as u64;
    let key_of = |record: &Record| {
        if record.key == CLASSIC {
            SINGLE_FLOW
        } else {
            record.key
        }
    };
    let open = |router: &mut FlowRouter<B>, keys: &[FlowKey]| {
        let mut tracks = HashMap::new();
        let started = Instant::now();
        for &key in keys {
            router.open_flow(key, 0).map_err(err("open flow"))?;
            tracks.insert(key, EmitTrack::new(host.batch_chunks));
        }
        Ok::<_, String>((tracks, started.elapsed()))
    };

    // Paced: the socket run's schedule.
    let mut codec = WireCodec::new();
    let mut paced_router = router::<B>(host, replay.durable("flows-paced"))?;
    let (mut tracks, opening) = open(&mut paced_router, keys)?;
    m.insert(
        "flow.open_us",
        opening.as_secs_f64() * 1e6 / keys.len() as f64,
    );
    let t0 = Instant::now();
    for (i, record) in paced.iter().enumerate() {
        sleep_until(t0 + Duration::from_secs_f64(i as f64 / plan.rate));
        let key = key_of(record);
        let at = Instant::now();
        paced_router
            .push(key, &record.bytes)
            .map_err(err("flow push"))?;
        tracks.get_mut(&key).expect("opened").pushed(at);
        frame_events(&mut paced_router, &mut codec, &mut tracks, units);
    }
    paced_router.finish_all().map_err(err("flow finish"))?;
    frame_events(&mut paced_router, &mut codec, &mut tracks, units);
    let delays: Vec<f64> = tracks.values().flat_map(EmitTrack::delays_ms).collect();
    m.insert("flow.emit_delay_ms_p50", quantile(&delays, 0.50));

    // Flood: as fast as pushes return.
    let mut flood_router = router::<B>(host, replay.durable("flows-flood"))?;
    let (mut tracks, _) = open(&mut flood_router, flood_keys)?;
    let started = Instant::now();
    for record in flood.iter() {
        let key = key_of(record);
        flood_router
            .push(key, &record.bytes)
            .map_err(err("flow push"))?;
        frame_events(&mut flood_router, &mut codec, &mut tracks, units);
    }
    let pushing = started.elapsed();
    flood_router.finish_all().map_err(err("flow finish"))?;
    frame_events(&mut flood_router, &mut codec, &mut tracks, units);
    let events: u64 = tracks.values().map(|t| t.events).sum();
    m.insert(
        "flow.push_ns_per_rec",
        pushing.as_nanos() as f64 / flood.len() as f64,
    );
    m.insert("flow.events_per_rec", events as f64 / flood.len() as f64);
    Ok(())
}

/// Per-batch engine calls, optionally committing each batch to a durable
/// store the way the pipelined emit path does.
struct EnginePass<B: CompressionBackend> {
    engine: CompressionEngine<B>,
    tags: BTreeMap<CodecId, u64>,
}

fn isolated_engine<B: CompressionBackend>(
    host: &HostPathConfig,
    input: &[u8],
    store_dir: Option<&Path>,
    m: &mut Metrics,
) -> Result<EnginePass<B>, String> {
    let backend = B::from_engine_config(&host.engine).map_err(err("backend"))?;
    let mut engine = zipline_engine::EngineBuilder::new()
        .config(host.engine)
        .backend(backend)
        .build()
        .map_err(err("engine"))?;
    let live = host.live_sync && engine.backend().supports_live_sync();
    engine.set_live_sync(live);
    let mut store = match store_dir {
        Some(dir) => {
            let dir = dir.join("isolated-store");
            let shards = host.engine.shards;
            let mut store =
                EngineStore::create(&dir, shards, host.engine.gd.dictionary_capacity() / shards)
                    .map_err(err("store"))?;
            store.set_options(StoreOptions {
                checkpoint_cadence: host.checkpoint_cadence,
                sync: SyncPolicy::Data,
            });
            Some((store, dir))
        }
        None => None,
    };
    let batch_bytes = host.batch_chunks * RECORD_BYTES;
    let mut compress_us = Vec::new();
    let mut commit_us = Vec::new();
    let mut tags = BTreeMap::new();
    let (mut payload_bytes, mut controls, mut batches) = (0u64, 0u64, 0u64);
    let mut records: Vec<(PacketType, u32)> = Vec::new();
    let mut wire = Vec::new();
    for data in input.chunks(batch_bytes) {
        let started = Instant::now();
        let batch = engine.compress_batch(data).map_err(err("compress_batch"))?;
        compress_us.push(started.elapsed().as_secs_f64() * 1e6);
        let backend = engine.backend_mut();
        let updates = if live {
            backend.take_delta().updates
        } else {
            Vec::new()
        };
        let tag = backend
            .tags_batches()
            .then(|| backend.batch_codec_id(&batch));
        *tags.entry(tag.unwrap_or(CODEC_GD)).or_insert(0) += 1;
        records.clear();
        wire.clear();
        backend
            .emit_batch(batch, &mut |packet_type, bytes| {
                records.push((packet_type, bytes.len() as u32));
                wire.extend_from_slice(bytes);
            })
            .map_err(err("emit_batch"))?;
        payload_bytes += wire.len() as u64;
        controls += updates.len() as u64;
        batches += 1;
        if let Some((store, _)) = store.as_mut() {
            let started = Instant::now();
            store
                .commit_batch(&records, &wire, tag, &updates, None, data.len() as u64)
                .map_err(err("commit_batch"))?;
            commit_us.push(started.elapsed().as_secs_f64() * 1e6);
        }
    }
    m.insert("engine.compress_us_per_batch", mean(&compress_us));
    m.insert(
        "engine.payload_ratio",
        input.len() as f64 / payload_bytes.max(1) as f64,
    );
    m.insert(
        "engine.controls_per_batch",
        controls as f64 / batches.max(1) as f64,
    );
    if let Some((store, dir)) = store {
        drop(store);
        let bytes: u64 = std::fs::read_dir(&dir)
            .map_err(err("store dir"))?
            .filter_map(|entry| entry.ok()?.metadata().ok())
            .map(|meta| meta.len())
            .sum();
        m.insert("persist.commit_us_p50", quantile(&commit_us, 0.50));
        m.insert("persist.commit_us_p99", quantile(&commit_us, 0.99));
        m.insert(
            "persist.bytes_per_commit",
            bytes as f64 / batches.max(1) as f64,
        );
        drop(std::fs::remove_dir_all(&dir));
    }
    Ok(EnginePass { engine, tags })
}

/// Routing decisions of `AutoBackend` over the batches.
fn auto_metrics(pass: EnginePass<AutoBackend>, m: &mut Metrics) {
    let count = |id| pass.tags.get(&id).copied().unwrap_or(0) as f64;
    m.insert("auto.batches_gd", count(CODEC_GD));
    m.insert("auto.batches_deflate", count(CODEC_DEFLATE));
    m.insert("auto.batches_hybrid", count(CODEC_HYBRID));
    m.insert("auto.switches", pass.engine.backend().switches() as f64);
}

/// One-shard `GdCompressor` and gzip over the same batches.
fn gd_and_deflate(host: &HostPathConfig, input: &[u8], m: &mut Metrics) -> Result<(), String> {
    let batch_bytes = host.batch_chunks * RECORD_BYTES;
    let mut gd = GdCompressor::new(&host.engine.gd).map_err(err("GdCompressor"))?;
    let mut gd_us = Vec::new();
    let mut deflate_us = Vec::new();
    let mut out = Vec::new();
    for data in input.chunks(batch_bytes) {
        let started = Instant::now();
        black_box(
            gd.compress_batch(data)
                .map_err(err("GdCompressor::compress_batch"))?,
        );
        gd_us.push(started.elapsed().as_secs_f64() * 1e6);
        out.clear();
        let started = Instant::now();
        zipline_deflate::gzip_compress_into(data, Level::Default, &mut out);
        deflate_us.push(started.elapsed().as_secs_f64() * 1e6);
        black_box(&out);
    }
    let stats = gd.stats();
    m.insert("gd.compress_us_per_batch", mean(&gd_us));
    m.insert(
        "gd.hit_ratio",
        stats.emitted_compressed as f64 / stats.chunks_in.max(1) as f64,
    );
    m.insert("gd.bases_learned", stats.bases_learned as f64);
    m.insert("gd.evictions", stats.evictions as f64);
    m.insert("deflate.compress_us_per_batch", mean(&deflate_us));
    Ok(())
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}
