//! The open-loop socket client: one connection per phase, driven by the
//! calling thread (the sender) and one reader thread that decodes,
//! restores, verifies and timestamps every server record as it arrives.
//!
//! The sender never waits for the server. In a paced phase it sleeps until
//! the next record is due and writes every due record in one `write`; in a
//! flood phase it writes as fast as the socket accepts. Each phase has a
//! wall-clock deadline derived from its schedule: when it passes, the
//! reader shuts the socket down, both threads stop, and every record not
//! yet restored counts as failed.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use zipline_engine::{
    CodecRegistry, EngineConfig, FlowDecoderPool, FlowKey, RegistryDecompressor, CODEC_GD,
};
use zipline_server::{ClientHello, DoneSummary, Record as Wire, WireCodec};

use crate::inputs::{Inputs, Record, CLASSIC};

/// How often a reader blocked on the socket checks its deadline.
const READ_POLL: Duration = Duration::from_millis(20);

/// Records framed into one write by the flood sender.
const FLOOD_GROUP: usize = 256;

/// Why a read stopped.
enum ReadError {
    Deadline,
    Failed(String),
}

/// The read half of a connection: a growable receive buffer over the
/// socket, decoded with the server's own [`WireCodec`].
struct FrameReader {
    stream: TcpStream,
    codec: WireCodec,
    buf: Vec<u8>,
    start: usize,
    end: usize,
    socket_bytes: u64,
    frames: u64,
    decode_ns: u64,
    trace: bool,
}

impl FrameReader {
    fn new(stream: TcpStream, trace: bool) -> Self {
        Self {
            stream,
            codec: WireCodec::new(),
            buf: vec![0; 256 * 1024],
            start: 0,
            end: 0,
            socket_bytes: 0,
            frames: 0,
            decode_ns: 0,
            trace,
        }
    }

    /// The next complete record; `Ok(None)` on a clean EOF.
    fn next(&mut self, deadline: Instant) -> Result<Option<Wire>, ReadError> {
        loop {
            let started = self.trace.then(Instant::now);
            let decoded = self.codec.decode(&self.buf[self.start..self.end]);
            if let Some(started) = started {
                self.decode_ns += started.elapsed().as_nanos() as u64;
            }
            match decoded {
                Ok(Some((record, used))) => {
                    self.start += used;
                    self.frames += 1;
                    return Ok(Some(record));
                }
                Ok(None) => {}
                Err(e) => return Err(ReadError::Failed(format!("undecodable server record: {e}"))),
            }
            if Instant::now() >= deadline {
                return Err(ReadError::Deadline);
            }
            if self.start > 0 {
                self.buf.copy_within(self.start..self.end, 0);
                self.end -= self.start;
                self.start = 0;
            }
            if self.end == self.buf.len() {
                let grown = self.buf.len() * 2;
                self.buf.resize(grown, 0);
            }
            match self.stream.read(&mut self.buf[self.end..]) {
                Ok(0) if self.end == 0 => return Ok(None),
                Ok(0) => return Err(ReadError::Failed("connection closed mid-record".into())),
                Ok(n) => {
                    self.end += n;
                    self.socket_bytes += n as u64;
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                    ) => {}
                Err(e) => return Err(ReadError::Failed(format!("socket read: {e}"))),
            }
        }
    }
}

/// Per-flow verification state: generated records not yet restored, and
/// restored bytes not yet matched to a whole record.
#[derive(Default)]
struct Pending {
    records: VecDeque<(u64, Vec<u8>)>,
    restored: Vec<u8>,
}

enum Decoder {
    Stream(RegistryDecompressor),
    Flows(FlowDecoderPool),
}

/// Restores every payload and checks it byte for byte against the
/// regenerated input.
struct Restorer {
    decoder: Decoder,
    out: Vec<u8>,
    pulled: u64,
    pending: HashMap<FlowKey, Pending>,
    ok: u64,
    mismatched: u64,
    /// Restored bytes beyond every record sent on their flow.
    surplus_bytes: u64,
    decode_errors: u64,
    /// Paced phases: the schedule's start and rate, for due times.
    schedule: Option<(Instant, f64)>,
    latencies_ns: Vec<u64>,
    restore_ns: u64,
    payloads: u64,
    payload_bytes: u64,
    opened: usize,
    done: Option<DoneSummary>,
    flow_done: BTreeMap<FlowKey, u64>,
    trace: bool,
}

impl Restorer {
    fn new(config: EngineConfig, multiplexed: bool, trace: bool) -> Self {
        let decoder = if multiplexed {
            Decoder::Flows(FlowDecoderPool::new(config))
        } else {
            Decoder::Stream(
                RegistryDecompressor::new(config, CODEC_GD).expect("gd is a registered codec"),
            )
        };
        Self {
            decoder,
            out: Vec::new(),
            pulled: 0,
            pending: HashMap::new(),
            ok: 0,
            mismatched: 0,
            surplus_bytes: 0,
            decode_errors: 0,
            schedule: None,
            latencies_ns: Vec::new(),
            restore_ns: 0,
            payloads: 0,
            payload_bytes: 0,
            opened: 0,
            done: None,
            flow_done: BTreeMap::new(),
            trace,
        }
    }

    /// Applies one server record, verifying restored bytes against
    /// `expected`, the regenerated input; `Err` ends the phase as failed.
    fn handle(&mut self, record: Wire, expected: &mut Expected<'_>) -> Result<(), String> {
        match record {
            Wire::ServerHello(_) => self.opened += 1,
            Wire::Payload {
                packet_type,
                codec,
                bytes,
            } => {
                let started = self.trace.then(Instant::now);
                let restored = match &mut self.decoder {
                    Decoder::Stream(dec) => dec
                        .restore_payload_tagged(codec, packet_type, &bytes, &mut self.out)
                        .map_err(|e| e.to_string()),
                    Decoder::Flows(_) => Err("classic PAYLOAD on a multiplexed connection".into()),
                };
                self.restored(CLASSIC, bytes.len(), started, restored, expected)?;
            }
            Wire::FlowPayload {
                key,
                packet_type,
                codec,
                bytes,
            } => {
                let started = self.trace.then(Instant::now);
                let restored = match &mut self.decoder {
                    Decoder::Flows(pool) => pool
                        .decode_payload(key, codec, packet_type, &bytes, &mut self.out)
                        .map_err(|e| e.to_string()),
                    Decoder::Stream(_) => Err("FLOW_PAYLOAD on a classic connection".into()),
                };
                self.restored(key, bytes.len(), started, restored, expected)?;
            }
            Wire::Control(update) | Wire::Reseed(update) => match &mut self.decoder {
                Decoder::Stream(dec) => dec.apply_update(&update).map_err(|e| e.to_string())?,
                Decoder::Flows(_) => {
                    return Err("classic CONTROL on a multiplexed connection".into())
                }
            },
            Wire::FlowControl { key, update } => match &mut self.decoder {
                Decoder::Flows(pool) => pool
                    .observe_control(key, &update)
                    .map_err(|e| e.to_string())?,
                Decoder::Stream(_) => return Err("FLOW_CONTROL on a classic connection".into()),
            },
            Wire::FlowReseed { key, update } => match &mut self.decoder {
                Decoder::Flows(pool) => {
                    pool.apply_reseed(key, &update).map_err(|e| e.to_string())?
                }
                Decoder::Stream(_) => return Err("FLOW_RESEED on a classic connection".into()),
            },
            Wire::FlowOpened { key, .. } => match &mut self.decoder {
                Decoder::Flows(pool) => {
                    pool.open(key).map_err(|e| e.to_string())?;
                    self.opened += 1;
                }
                Decoder::Stream(_) => return Err("FLOW_OPENED on a classic connection".into()),
            },
            Wire::FlowDone { key, summary } => {
                self.flow_done.insert(key, summary.bytes_in);
            }
            Wire::Done(summary) => self.done = Some(summary),
            Wire::Error(message) => return Err(format!("server error: {message}")),
            other => return Err(format!("unexpected {} from the server", other.kind_name())),
        }
        Ok(())
    }

    /// Matches the bytes one payload restored against the generated input.
    fn restored(
        &mut self,
        key: FlowKey,
        payload_len: usize,
        started: Option<Instant>,
        outcome: Result<(), String>,
        expected: &mut Expected<'_>,
    ) -> Result<(), String> {
        let now = Instant::now();
        if let Some(started) = started {
            self.restore_ns += now.duration_since(started).as_nanos() as u64;
        }
        self.payloads += 1;
        self.payload_bytes += payload_len as u64;
        if outcome.is_err() {
            // The records this payload held stay unrestored: failed.
            self.decode_errors += 1;
            self.out.clear();
            return Ok(());
        }
        let entry = self.pending.entry(key).or_default();
        entry.restored.extend_from_slice(&self.out);
        self.out.clear();
        let mut used = 0;
        loop {
            let have = self.pending[&key].restored.len() - used;
            if have == 0 {
                break;
            }
            if self.pending[&key].records.is_empty() && !self.pull_for(key, expected) {
                // More bytes than the client ever sent on this flow.
                self.surplus_bytes += have as u64;
                used = self.pending[&key].restored.len();
                break;
            }
            let entry = self.pending.get_mut(&key).expect("entry exists");
            let (index, expected) = entry.records.front().expect("pulled above");
            if have < expected.len() {
                break;
            }
            let index = *index;
            if entry.restored[used..used + expected.len()] == expected[..] {
                self.ok += 1;
                if let Some((t0, rate)) = self.schedule {
                    let due = t0 + Duration::from_secs_f64(index as f64 / rate);
                    self.latencies_ns
                        .push(now.saturating_duration_since(due).as_nanos() as u64);
                }
            } else {
                self.mismatched += 1;
            }
            used += expected.len();
            entry.records.pop_front();
        }
        if let Some(entry) = self.pending.get_mut(&key) {
            entry.restored.drain(..used);
        }
        Ok(())
    }

    /// Regenerates input until `key` has a pending record; false when every
    /// record sent so far has been pulled without one for `key`.
    fn pull_for(&mut self, key: FlowKey, expected: &mut Expected<'_>) -> bool {
        while self.pulled < expected.sent.load(Ordering::Acquire) {
            let Some(record) = expected.records.next() else {
                return false;
            };
            let index = self.pulled;
            self.pulled += 1;
            let hit = record.key == key;
            self.pending
                .entry(record.key)
                .or_default()
                .records
                .push_back((index, record.bytes));
            if hit {
                return true;
            }
        }
        false
    }

    /// Restored bytes left over that never formed a whole record.
    fn leftover_bytes(&self) -> usize {
        self.pending.values().map(|p| p.restored.len()).sum()
    }

    /// Output that matches no sent record: undecodable payloads, bytes
    /// beyond every record sent, and a trailing partial record. Records
    /// that were not restored count as failed on their own; these fail the
    /// run even when every record was restored.
    fn problems(&self) -> Vec<String> {
        let mut problems = Vec::new();
        if self.decode_errors > 0 {
            problems.push(format!("{} payloads failed to decode", self.decode_errors));
        }
        if self.surplus_bytes > 0 {
            problems.push(format!(
                "{} restored bytes beyond every record sent",
                self.surplus_bytes
            ));
        }
        let leftover = self.leftover_bytes();
        if leftover > 0 {
            problems.push(format!(
                "{leftover} restored bytes left over that form no whole record"
            ));
        }
        problems
    }
}

/// The input a reader verifies against: the phase's regenerated records,
/// of which only the first `sent` may have reached the server.
struct Expected<'a> {
    records: Box<dyn Iterator<Item = Record> + 'a>,
    sent: &'a AtomicU64,
}

/// One connection with its hello (and every `FLOW_OPEN`) answered.
pub struct Session<'a> {
    reader: FrameReader,
    writer: TcpStream,
    restorer: Restorer,
    inputs: &'a Inputs,
    keys: Vec<FlowKey>,
}

/// How the sender schedules records.
#[derive(Debug, Clone, Copy)]
pub enum Pace {
    /// Open loop at a fixed rate in records per second.
    Paced(f64),
    /// As fast as the socket accepts.
    Flood,
}

/// Everything one phase measured.
#[derive(Debug, Default)]
pub struct PhaseOutcome {
    /// Records the sender handed to the socket.
    pub records: u64,
    /// Input bytes the sender handed to the socket.
    pub bytes: u64,
    /// Records restored bit-exactly.
    pub ok: u64,
    /// Records restored wrong, payloads that failed to decode, plus one
    /// each for surplus and for left-over restored bytes.
    pub verify_failures: u64,
    /// Paced: due-to-restored latency of every verified record.
    pub latencies_ns: Vec<u64>,
    /// Paced: how late each write started against its oldest record.
    pub late_ns: Vec<u64>,
    /// First send to the server's final `DONE`.
    pub elapsed: Duration,
    /// Framed bytes received on the socket, hello included.
    pub socket_bytes: u64,
    /// Records received on the socket, hello included.
    pub frames: u64,
    /// Payload records received, and their payload bytes.
    pub payloads: u64,
    pub payload_bytes: u64,
    /// Traced spans, in nanoseconds: client `WireCodec` encode and decode,
    /// payload restore, and time blocked in `write`.
    pub encode_ns: u64,
    pub decode_ns: u64,
    pub restore_ns: u64,
    pub write_ns: u64,
    /// Protocol, verification, reconciliation and deadline problems.
    pub errors: Vec<String>,
    /// True when the deadline fired.
    pub expired: bool,
    /// True when the client's input counts disagree with the server's.
    pub unreconciled: bool,
}

impl PhaseOutcome {
    /// Records not restored bit-exactly; every record of a phase whose
    /// counts do not reconcile.
    pub fn failed(&self) -> u64 {
        if self.unreconciled {
            self.records
        } else {
            self.records.saturating_sub(self.ok)
        }
    }
}

impl<'a> Session<'a> {
    /// Connects, sends the hello (and one `FLOW_OPEN` per flow of a
    /// multiplexed phase) and waits until every one is answered.
    pub fn open(
        addr: SocketAddr,
        inputs: &'a Inputs,
        config: EngineConfig,
        stream_id: u64,
        trace: bool,
        deadline: Instant,
    ) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .and_then(|()| stream.set_read_timeout(Some(READ_POLL)))
            .map_err(|e| format!("configuring the socket: {e}"))?;
        let writer = stream
            .try_clone()
            .map_err(|e| format!("cloning the socket: {e}"))?;
        let keys = inputs.flow_keys();
        let multiplexed = !keys.is_empty();
        let mut session = Self {
            reader: FrameReader::new(stream, trace),
            writer,
            restorer: Restorer::new(config, multiplexed, trace),
            inputs,
            keys,
        };
        let mut hello = ClientHello::new(stream_id, 0);
        hello.multiplex = multiplexed;
        hello.codecs = CodecRegistry::standard().ids();
        let mut opening = vec![Wire::ClientHello(hello)];
        opening.extend(session.keys.iter().map(|&key| Wire::FlowOpen {
            key,
            entries_held: 0,
        }));
        session.send(&opening)?;
        let answers = 1 + session.keys.len();
        session.await_records(deadline, |r| r.opened >= answers)?;
        Ok(session)
    }

    fn send(&mut self, records: &[Wire]) -> Result<(), String> {
        let mut frame = Vec::new();
        for record in records {
            self.reader.codec.encode_into(record, &mut frame);
        }
        self.writer
            .write_all(&frame)
            .map_err(|e| format!("sending to the server: {e}"))
    }

    /// Reads records that restore no input until `done` holds.
    fn await_records(
        &mut self,
        deadline: Instant,
        done: impl Fn(&Restorer) -> bool,
    ) -> Result<(), String> {
        let none = AtomicU64::new(0);
        let mut expected = Expected {
            records: Box::new(std::iter::empty()),
            sent: &none,
        };
        read_until(
            &mut self.reader,
            &mut self.restorer,
            &mut expected,
            deadline,
            done,
        )
        .map_err(|e| match e {
            ReadError::Deadline => "the server did not answer in time".into(),
            ReadError::Failed(e) => e,
        })
    }

    /// Runs one phase for `seconds`, then ends the stream (or every flow)
    /// and waits for the final `DONE`, at most `grace` past the schedule.
    pub fn run(self, pace: Pace, seconds: f64, grace: Duration) -> PhaseOutcome {
        let Session {
            mut reader,
            mut writer,
            mut restorer,
            inputs,
            keys,
        } = self;
        let trace = reader.trace;
        let sent = AtomicU64::new(0);
        let stop = AtomicBool::new(false);
        let t0 = Instant::now();
        let deadline = t0 + Duration::from_secs_f64(seconds) + grace;
        if let Pace::Paced(rate) = pace {
            restorer.schedule = Some((t0, rate));
        }
        let socket_before = reader.socket_bytes;
        let frames_before = reader.frames;

        let mut sender = Sender {
            codec: WireCodec::new(),
            records: 0,
            bytes: 0,
            per_flow: BTreeMap::new(),
            late_ns: Vec::new(),
            encode_ns: 0,
            write_ns: 0,
            trace,
        };
        let (send_result, (reader, restorer, read_result, finished)) =
            std::thread::scope(|scope| {
                let sent = &sent;
                let stop = &stop;
                let reading = scope.spawn(move || {
                    let mut expected = Expected {
                        records: inputs.records(),
                        sent,
                    };
                    let result =
                        read_until(&mut reader, &mut restorer, &mut expected, deadline, |r| {
                            r.done.is_some()
                        });
                    let finished = Instant::now();
                    if result.is_err() {
                        // Unblocks a sender stuck in `write`.
                        stop.store(true, Ordering::SeqCst);
                        drop(reader.stream.shutdown(Shutdown::Both));
                    }
                    (reader, restorer, result, finished)
                });
                let send_result =
                    sender.run(&mut writer, inputs, &keys, pace, seconds, t0, sent, stop);
                (send_result, reading.join().expect("reader thread panicked"))
            });

        let problems = restorer.problems();
        let mut outcome = PhaseOutcome {
            records: sender.records,
            bytes: sender.bytes,
            ok: restorer.ok,
            verify_failures: restorer.mismatched
                + restorer.decode_errors
                + u64::from(restorer.surplus_bytes > 0)
                + u64::from(restorer.leftover_bytes() > 0),
            elapsed: finished.duration_since(t0),
            socket_bytes: reader.socket_bytes - socket_before,
            frames: reader.frames - frames_before,
            payloads: restorer.payloads,
            payload_bytes: restorer.payload_bytes,
            encode_ns: sender.encode_ns,
            decode_ns: reader.decode_ns,
            restore_ns: restorer.restore_ns,
            write_ns: sender.write_ns,
            late_ns: sender.late_ns,
            latencies_ns: restorer.latencies_ns,
            ..PhaseOutcome::default()
        };
        if let Err(e) = send_result {
            outcome.errors.push(e);
        }
        outcome.errors.extend(problems);
        match read_result {
            Ok(()) => {}
            Err(ReadError::Deadline) => {
                outcome.expired = true;
                outcome.errors.push(format!(
                    "phase deadline passed with {} of {} records unrestored",
                    outcome.failed(),
                    outcome.records
                ));
            }
            Err(ReadError::Failed(e)) => outcome.errors.push(e),
        }
        if let Some(done) = restorer.done {
            let mut mismatches = Vec::new();
            if done.bytes_in != sender.bytes {
                mismatches.push(format!(
                    "DONE reports {} input bytes, the client sent {}",
                    done.bytes_in, sender.bytes
                ));
            }
            for key in &keys {
                let sent = sender.per_flow.get(key).copied().unwrap_or(0);
                match restorer.flow_done.get(key) {
                    Some(&bytes_in) if bytes_in == sent => {}
                    Some(&bytes_in) => mismatches.push(format!(
                        "FLOW_DONE for {key} reports {bytes_in} input bytes, the client sent {sent}"
                    )),
                    None => mismatches.push(format!("no FLOW_DONE for {key}")),
                }
            }
            outcome.unreconciled = !mismatches.is_empty();
            outcome.errors.extend(mismatches);
        }
        outcome
    }
}

/// The sending half of a phase and what it measured.
struct Sender {
    codec: WireCodec,
    records: u64,
    bytes: u64,
    per_flow: BTreeMap<FlowKey, u64>,
    late_ns: Vec<u64>,
    encode_ns: u64,
    write_ns: u64,
    trace: bool,
}

impl Sender {
    /// Sends the phase's records on schedule, then the end records.
    #[allow(clippy::too_many_arguments)]
    fn run(
        &mut self,
        writer: &mut TcpStream,
        inputs: &Inputs,
        keys: &[FlowKey],
        pace: Pace,
        seconds: f64,
        t0: Instant,
        sent: &AtomicU64,
        stop: &AtomicBool,
    ) -> Result<(), String> {
        let mut records = inputs.records();
        let mut group = Vec::new();
        let mut frame = Vec::new();
        let end_at = t0 + Duration::from_secs_f64(seconds);
        match pace {
            Pace::Paced(rate) => {
                let total = (seconds * rate).round() as u64;
                let due = |i: u64| t0 + Duration::from_secs_f64(i as f64 / rate);
                while self.records < total && !stop.load(Ordering::Relaxed) {
                    let now = Instant::now();
                    let due_now =
                        ((now.duration_since(t0).as_secs_f64() * rate) as u64 + 1).min(total);
                    if due_now > self.records {
                        self.late_ns.push(
                            now.saturating_duration_since(due(self.records)).as_nanos() as u64,
                        );
                        group.extend(records.by_ref().take((due_now - self.records) as usize));
                        self.write_group(writer, &mut group, &mut frame, sent)?;
                    }
                    if self.records < total {
                        let wait = due(self.records).saturating_duration_since(Instant::now());
                        if !wait.is_zero() {
                            std::thread::sleep(wait);
                        }
                    }
                }
            }
            Pace::Flood => {
                while Instant::now() < end_at && !stop.load(Ordering::Relaxed) {
                    group.extend(records.by_ref().take(FLOOD_GROUP));
                    self.write_group(writer, &mut group, &mut frame, sent)?;
                }
            }
        }
        frame.clear();
        for record in end_records(keys) {
            self.codec.encode_into(&record, &mut frame);
        }
        writer
            .write_all(&frame)
            .map_err(|e| format!("sending END: {e}"))
    }

    /// Frames `group` into one buffer (draining it) and writes it in one
    /// call.
    fn write_group(
        &mut self,
        writer: &mut TcpStream,
        group: &mut Vec<Record>,
        frame: &mut Vec<u8>,
        sent: &AtomicU64,
    ) -> Result<(), String> {
        self.records += group.len() as u64;
        for record in group.iter() {
            self.bytes += record.bytes.len() as u64;
            *self.per_flow.entry(record.key).or_insert(0) += record.bytes.len() as u64;
        }
        frame.clear();
        let started = self.trace.then(Instant::now);
        for Record { key, bytes } in group.drain(..) {
            let wire = if key == CLASSIC {
                Wire::Data(bytes)
            } else {
                Wire::FlowData { key, bytes }
            };
            self.codec.encode_into(&wire, frame);
        }
        if let Some(started) = started {
            self.encode_ns += started.elapsed().as_nanos() as u64;
        }
        // Published before the write: the reader may only regenerate
        // records the server can already have seen.
        sent.store(self.records, Ordering::Release);
        let started = self.trace.then(Instant::now);
        writer
            .write_all(frame)
            .map_err(|e| format!("writing records: {e}"))?;
        if let Some(started) = started {
            self.write_ns += started.elapsed().as_nanos() as u64;
        }
        Ok(())
    }
}

/// `FLOW_END` for every flow, then `END`.
fn end_records(keys: &[FlowKey]) -> Vec<Wire> {
    let mut end: Vec<Wire> = keys.iter().map(|&key| Wire::FlowEnd { key }).collect();
    end.push(Wire::End);
    end
}

/// Reads and applies server records until `done` holds, the deadline
/// passes, or something fails.
fn read_until(
    reader: &mut FrameReader,
    restorer: &mut Restorer,
    expected: &mut Expected<'_>,
    deadline: Instant,
    done: impl Fn(&Restorer) -> bool,
) -> Result<(), ReadError> {
    while !done(restorer) {
        match reader.next(deadline)? {
            Some(record) => restorer
                .handle(record, expected)
                .map_err(ReadError::Failed)?,
            None => {
                return Err(ReadError::Failed(
                    "the server closed the connection early".into(),
                ))
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{Workload, RECORD_BYTES};

    /// Feeds `restored` outputs, one payload each, to a fresh restorer
    /// verifying against the first two sensor records.
    fn verify(outputs: impl Fn(&[Record]) -> Vec<Vec<u8>>) -> Restorer {
        let inputs = Inputs::new(Workload::SensorGd, 1, 1);
        let sent: Vec<Record> = inputs.records().take(2).collect();
        let count = AtomicU64::new(sent.len() as u64);
        let mut expected = Expected {
            records: Box::new(sent.clone().into_iter()),
            sent: &count,
        };
        let mut restorer = Restorer::new(crate::engine_config(), false, false);
        for out in outputs(&sent) {
            restorer.out = out;
            restorer
                .restored(CLASSIC, 0, None, Ok(()), &mut expected)
                .expect("verification never ends a phase");
        }
        restorer
    }

    #[test]
    fn exact_output_verifies_cleanly() {
        let restorer = verify(|sent| sent.iter().map(|r| r.bytes.clone()).collect());
        assert_eq!((restorer.ok, restorer.mismatched), (2, 0));
        assert!(restorer.problems().is_empty());
    }

    #[test]
    fn a_duplicated_trailing_payload_is_a_problem() {
        let restorer = verify(|sent| {
            let mut outputs: Vec<Vec<u8>> = sent.iter().map(|r| r.bytes.clone()).collect();
            outputs.push(sent[1].bytes.clone());
            outputs
        });
        assert_eq!(restorer.ok, 2);
        assert_eq!(restorer.surplus_bytes, RECORD_BYTES as u64);
        assert_eq!(restorer.problems().len(), 1, "{:?}", restorer.problems());
    }

    #[test]
    fn a_trailing_partial_record_is_a_problem() {
        let restorer = verify(|sent| {
            vec![
                sent[0].bytes.clone(),
                sent[1].bytes[..RECORD_BYTES / 2].to_vec(),
            ]
        });
        assert_eq!(restorer.ok, 1);
        assert_eq!(restorer.problems().len(), 1, "{:?}", restorer.problems());
    }

    #[test]
    fn a_flipped_byte_fails_its_record() {
        let restorer = verify(|sent| {
            let mut outputs: Vec<Vec<u8>> = sent.iter().map(|r| r.bytes.clone()).collect();
            outputs[1][3] ^= 1;
            outputs
        });
        assert_eq!((restorer.ok, restorer.mismatched), (1, 1));
    }
}
