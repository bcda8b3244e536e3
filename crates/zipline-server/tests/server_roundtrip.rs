//! End-to-end server suite: the socket path must be **bit-identical** to an
//! in-process [`PipelinedStream`] over the same configuration, on both
//! transports; concurrent connections stay isolated; shutdown is graceful
//! (`DONE` with `server_initiated`); protocol violations surface as typed
//! `ERROR` records instead of hangs or panics. Every test runs under both
//! pipeline spawn policies and a wall-clock bound; a closed loop whose
//! window is one batch pins that finished batches never wait for more
//! client input.

mod common;

use zipline::host::HostPathConfig;
use zipline_engine::{
    CompressionBackend, DictionaryUpdate, EngineConfig, GdBackend, PipelinedStream, SpawnPolicy,
};
use zipline_gd::packet::PacketType;
use zipline_gd::GdConfig;
use zipline_server::{
    run_closed_loop, BackendChoice, ClientSession, Endpoint, LoadConfig, ServerConfigBuilder,
    ServerEvent, ServerHandle,
};
use zipline_traces::{ChunkWorkload, FlowMixConfig, FlowMixWorkload};

/// A small, churn-heavy host shape: 64-identifier dictionary, 32-byte
/// chunks, 64-chunk batches — every test below uses it so the reference
/// and server engines are built from the same struct.
fn small_host(spawn: SpawnPolicy) -> HostPathConfig {
    HostPathConfig {
        engine: EngineConfig {
            gd: GdConfig::for_parameters(8, 6).expect("valid GD parameters"),
            shards: 4,
            workers: 2,
            spawn,
        },
        batch_chunks: 64,
        ..HostPathConfig::paper_default()
    }
}

fn workload_chunks(seed: u64) -> Vec<Vec<u8>> {
    let config = FlowMixConfig {
        chunks: 2048,
        ..FlowMixConfig::small_with_seed(seed)
    };
    FlowMixWorkload::new(config).chunks().collect()
}

/// What one stream produced, in emission order.
#[derive(Debug, PartialEq)]
struct StreamOutput {
    payloads: Vec<(PacketType, Vec<u8>)>,
    controls: Vec<DictionaryUpdate>,
}

/// The in-process ground truth: the same chunks through a local pipelined
/// stream built from the same host configuration.
fn reference_run(host: &HostPathConfig, chunks: &[Vec<u8>]) -> StreamOutput {
    let mut host = host.clone();
    if host.pipeline_depth.is_none() {
        host.pipeline_depth = Some(2);
    }
    let backend = GdBackend::from_engine_config(&host.engine).expect("backend builds");
    let engine = host
        .engine_builder()
        .backend(backend)
        .build()
        .expect("engine builds");
    let mut payloads = Vec::new();
    let mut controls = Vec::new();
    let mut stream = PipelinedStream::with_control_sink(
        engine,
        host.batch_chunks,
        |pt, bytes: &[u8]| payloads.push((pt, bytes.to_vec())),
        Some(|update: &DictionaryUpdate| controls.push(update.clone())),
    )
    .expect("stream builds");
    for chunk in chunks {
        stream.push_record(chunk).expect("push succeeds");
    }
    stream.finish().expect("finish succeeds");
    StreamOutput { payloads, controls }
}

/// Streams `chunks` over a connected session and collects everything the
/// server sends back, asserting a clean client-ended `DONE`.
fn stream_over_socket(
    endpoint: &Endpoint,
    stream_id: u64,
    chunks: &[Vec<u8>],
) -> (StreamOutput, u64) {
    let mut session = ClientSession::connect(endpoint).expect("connects");
    let hello = session.hello(stream_id, 0).expect("hello answered");
    assert!(!hello.warm, "fresh in-memory stream");
    assert_eq!(hello.replay_entries, 0);
    for chunk in chunks {
        session.send_data(chunk).expect("data sent");
    }
    session.end().expect("end sent");
    let mut output = StreamOutput {
        payloads: Vec::new(),
        controls: Vec::new(),
    };
    let done = session
        .drain_to_done(|event| match event {
            ServerEvent::Payload {
                packet_type, bytes, ..
            } => output.payloads.push((packet_type, bytes)),
            ServerEvent::Control(update) => output.controls.push(update),
            other => panic!("unexpected event {other:?}"),
        })
        .expect("stream finishes cleanly");
    assert!(!done.server_initiated, "the client ended this stream");
    (output, done.bytes_in)
}

#[test]
fn tcp_stream_is_bit_identical_to_the_local_pipeline() {
    common::for_each_policy(tcp_stream_is_bit_identical_to_the_local_pipeline_case);
}

fn tcp_stream_is_bit_identical_to_the_local_pipeline_case(spawn: SpawnPolicy) {
    let host = small_host(spawn);
    let chunks = workload_chunks(1);
    let reference = reference_run(&host, &chunks);

    let handle = ServerHandle::bind_tcp(
        "127.0.0.1:0",
        ServerConfigBuilder::new()
            .host(host)
            .build()
            .expect("valid server config"),
    )
    .expect("server binds");
    let (output, bytes_in) = stream_over_socket(handle.endpoint(), 0xA, &chunks);
    assert_eq!(bytes_in, (chunks.len() * 32) as u64);
    assert!(!output.controls.is_empty(), "the workload churns");
    assert_eq!(output, reference, "socket path must match the local engine");

    let report = handle.shutdown();
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    assert_eq!(report.stats.streams_completed, 1);
}

#[cfg(unix)]
#[test]
fn uds_stream_is_bit_identical_to_the_local_pipeline() {
    common::for_each_policy(uds_stream_is_bit_identical_to_the_local_pipeline_case);
}

#[cfg(unix)]
fn uds_stream_is_bit_identical_to_the_local_pipeline_case(spawn: SpawnPolicy) {
    let host = small_host(spawn);
    let chunks = workload_chunks(2);
    let reference = reference_run(&host, &chunks);

    let path =
        std::env::temp_dir().join(format!("zipline-uds-{spawn:?}-{}.sock", std::process::id()));
    let handle = ServerHandle::bind_uds(
        &path,
        ServerConfigBuilder::new()
            .host(host)
            .build()
            .expect("valid server config"),
    )
    .expect("server binds");
    let (output, _) = stream_over_socket(handle.endpoint(), 0xB, &chunks);
    assert_eq!(output, reference, "UDS path must match the local engine");

    let report = handle.shutdown();
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    assert!(!path.exists(), "socket file removed on shutdown");
}

#[test]
fn concurrent_connections_each_match_their_own_reference() {
    common::for_each_policy(concurrent_connections_each_match_their_own_reference_case);
}

fn concurrent_connections_each_match_their_own_reference_case(spawn: SpawnPolicy) {
    let host = small_host(spawn);
    let handle = ServerHandle::bind_tcp(
        "127.0.0.1:0",
        ServerConfigBuilder::new()
            .host(host.clone())
            .build()
            .expect("valid server config"),
    )
    .expect("server binds");
    let endpoint = handle.endpoint().clone();

    let outputs: Vec<(u64, StreamOutput)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4u64)
            .map(|i| {
                let endpoint = endpoint.clone();
                scope.spawn(move || {
                    let chunks = workload_chunks(100 + i);
                    let (output, _) = stream_over_socket(&endpoint, 0x100 + i, &chunks);
                    (100 + i, output)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for (seed, output) in outputs {
        let reference = reference_run(&host, &workload_chunks(seed));
        assert_eq!(output, reference, "stream seeded {seed} diverged");
    }
    let report = handle.shutdown();
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    assert_eq!(report.stats.streams_completed, 4);
    assert_eq!(report.stats.connections, 4);
}

#[test]
fn graceful_shutdown_finishes_in_flight_streams_with_done() {
    common::for_each_policy(graceful_shutdown_finishes_in_flight_streams_with_done_case);
}

fn graceful_shutdown_finishes_in_flight_streams_with_done_case(spawn: SpawnPolicy) {
    let host = small_host(spawn);
    let handle = ServerHandle::bind_tcp(
        "127.0.0.1:0",
        ServerConfigBuilder::new()
            .host(host)
            .build()
            .expect("valid server config"),
    )
    .expect("server binds");

    let mut session = ClientSession::connect(handle.endpoint()).expect("connects");
    session.hello(0xC, 0).expect("hello answered");
    let chunks = workload_chunks(3);
    let sent: u64 = chunks.iter().map(|c| c.len() as u64).sum();
    for chunk in &chunks {
        session.send_data(chunk).expect("data sent");
    }
    // No END: let the data land, then shut the server down around the
    // still-open stream.
    std::thread::sleep(std::time::Duration::from_millis(300));
    let report = handle.shutdown();
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    assert_eq!(report.stats.streams_completed, 1);

    let done = session
        .drain_to_done(|_| {})
        .expect("server-initiated finish still ends in DONE");
    assert!(done.server_initiated, "the server ended this stream");
    assert_eq!(done.bytes_in, sent, "every pushed byte was committed");
}

#[test]
fn duplicate_stream_ids_are_rejected_and_released() {
    common::for_each_policy(duplicate_stream_ids_are_rejected_and_released_case);
}

fn duplicate_stream_ids_are_rejected_and_released_case(spawn: SpawnPolicy) {
    let host = small_host(spawn);
    let handle = ServerHandle::bind_tcp(
        "127.0.0.1:0",
        ServerConfigBuilder::new()
            .host(host)
            .build()
            .expect("valid server config"),
    )
    .expect("server binds");

    let mut first = ClientSession::connect(handle.endpoint()).expect("connects");
    first.hello(0xD, 0).expect("hello answered");

    let mut second = ClientSession::connect(handle.endpoint()).expect("connects");
    let err = second.hello(0xD, 0).expect_err("duplicate id must fail");
    assert!(
        err.to_string().contains("already being served"),
        "unexpected error: {err}"
    );

    // The first stream is unaffected and still completes.
    let chunks = workload_chunks(4);
    for chunk in &chunks {
        first.send_data(chunk).expect("data sent");
    }
    first.end().expect("end sent");
    let done = first.drain_to_done(|_| {}).expect("clean finish");
    assert!(!done.server_initiated);

    // With the first stream done, the id becomes free again; the release
    // happens on the handler thread after DONE, so poll briefly.
    let mut reused = false;
    for _ in 0..50 {
        let mut third = ClientSession::connect(handle.endpoint()).expect("connects");
        if third.hello(0xD, 0).is_ok() {
            reused = true;
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    assert!(reused, "released id is reusable");

    let report = handle.shutdown();
    assert!(
        report.stats.failed_streams >= 1,
        "the duplicate hello failed loudly"
    );
    assert!(report.stats.streams_completed >= 1);
}

#[test]
fn protocol_violations_surface_as_typed_error_records() {
    common::for_each_policy(protocol_violations_surface_as_typed_error_records_case);
}

fn protocol_violations_surface_as_typed_error_records_case(spawn: SpawnPolicy) {
    let host = small_host(spawn);
    let handle = ServerHandle::bind_tcp(
        "127.0.0.1:0",
        ServerConfigBuilder::new()
            .host(host)
            .build()
            .expect("valid server config"),
    )
    .expect("server binds");

    // DATA before CLIENT_HELLO.
    let mut rude = ClientSession::connect(handle.endpoint()).expect("connects");
    rude.send_data(b"no hello").expect("data sent");
    match rude.next_event() {
        Some(ServerEvent::ServerError(message)) => {
            assert!(message.contains("CLIENT_HELLO"), "got: {message}")
        }
        other => panic!("expected ERROR, got {other:?}"),
    }
    drop(rude);

    // A second CLIENT_HELLO mid-stream.
    let mut twice = ClientSession::connect(handle.endpoint()).expect("connects");
    twice.hello(0xE, 0).expect("hello answered");
    let err = twice.hello(0xE, 0).expect_err("second hello must fail");
    assert!(
        err.to_string().contains("CLIENT_HELLO"),
        "unexpected error: {err}"
    );

    let report = handle.shutdown();
    assert_eq!(report.stats.failed_streams, 2);
    assert_eq!(report.stats.streams_completed, 0);
}

#[test]
fn closed_loop_harness_reports_sane_numbers() {
    common::for_each_policy(closed_loop_harness_reports_sane_numbers_case);
}

fn closed_loop_harness_reports_sane_numbers_case(spawn: SpawnPolicy) {
    let host = small_host(spawn);
    let handle = ServerHandle::bind_tcp(
        "127.0.0.1:0",
        ServerConfigBuilder::new()
            .host(host.clone())
            .build()
            .expect("valid server config"),
    )
    .expect("server binds");

    let load = LoadConfig {
        connections: 2,
        window_chunks: 256,
        chunk_bytes: host.engine.gd.chunk_bytes,
        batch_chunks: host.batch_chunks,
        backend: BackendChoice::Gd,
    };
    let workloads: Vec<Box<dyn ChunkWorkload + Send>> = (0..2u64)
        .map(|i| {
            Box::new(FlowMixWorkload::new(FlowMixConfig {
                chunks: 2048,
                ..FlowMixConfig::small_with_seed(7 + i)
            })) as Box<dyn ChunkWorkload + Send>
        })
        .collect();
    let report =
        run_closed_loop(handle.endpoint(), &load, "flows", 0x200, workloads).expect("load runs");

    assert_eq!(report.connections, 2);
    assert_eq!(report.records_sent, 2 * 2048);
    assert_eq!(report.bytes_sent, 2 * 2048 * 32);
    assert!(report.payloads > 0);
    assert!(report.wire_bytes > 0);
    assert!(report.throughput_mbps() > 0.0);
    assert_eq!(report.latency.count(), report.records_sent);
    let p50 = report.latency.quantile(0.50);
    let p99 = report.latency.quantile(0.99);
    assert!(p50 > 0 && p50 <= p99 && p99 <= report.latency.max_ns());

    let server = handle.shutdown();
    assert!(server.errors.is_empty(), "{:?}", server.errors);
    assert_eq!(server.stats.streams_completed, 2);
}

/// A closed loop whose window is exactly one batch: the client sends one
/// batch and waits for it to come back before sending more. It only ends
/// if every finished batch reaches the client without further input. With
/// a real worker thread per stream this holds on any core count.
#[test]
fn closed_loop_with_a_one_batch_window_never_waits_on_the_server() {
    for backend in [
        BackendChoice::Gd,
        BackendChoice::Deflate,
        BackendChoice::Hybrid,
        BackendChoice::Auto,
    ] {
        common::bounded(&format!("one-batch closed loop [{backend}]"), move || {
            one_batch_window_case(backend)
        });
    }
}

fn one_batch_window_case(backend: BackendChoice) {
    let host = small_host(SpawnPolicy::Threads);
    let handle = ServerHandle::bind_tcp(
        "127.0.0.1:0",
        ServerConfigBuilder::new()
            .host(host.clone())
            .backend(backend)
            .build()
            .expect("valid server config"),
    )
    .expect("server binds");
    let load = LoadConfig {
        connections: 1,
        window_chunks: host.batch_chunks,
        chunk_bytes: host.engine.gd.chunk_bytes,
        batch_chunks: host.batch_chunks,
        backend,
    };
    let workloads: Vec<Box<dyn ChunkWorkload + Send>> =
        vec![Box::new(FlowMixWorkload::new(FlowMixConfig {
            chunks: 1024,
            ..FlowMixConfig::small_with_seed(11)
        }))];
    let report =
        run_closed_loop(handle.endpoint(), &load, "flows", 0x300, workloads).expect("load runs");
    assert_eq!(report.records_sent, 1024);
    assert_eq!(report.latency.count(), report.records_sent);

    let server = handle.shutdown();
    assert!(server.errors.is_empty(), "{:?}", server.errors);
    assert_eq!(server.stats.streams_completed, 1);
}
