//! A connection's threads and channels: the reader thread and the
//! handler's [`Inbox`], the [`Outbox`] of framed bursts and the ordered
//! writer thread, and [`run_events`], the handler's event loop. The
//! parent module's docs describe the thread model and the wake argument.

use std::cell::RefCell;
use std::io::{Read, Write};
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TryRecvError};
use std::sync::Arc;
use std::thread::{self, JoinHandle};

use zipline_engine::{CodecId, CommittedEntry, DictionaryUpdate, ReadySignal};
use zipline_flow::{FlowEvent, FlowKey};
use zipline_gd::packet::PacketType;

use super::Shared;
use crate::error::{ServerError, ServerResult};
use crate::net::Conn;
#[cfg(doc)]
use crate::wire::RecordReader;
use crate::wire::{Record, WireCodec, WireError};

/// One event of a connection handler's loop.
enum ConnEvent {
    /// The bytes of one socket `read`, forwarded by the reader thread.
    Bytes(Vec<u8>),
    /// The read half ended: `None` at EOF, `Some` on a read error.
    Closed(Option<std::io::Error>),
    /// A pipelined worker returned a finished batch.
    Ready,
}

/// Events queued between a connection's reader thread and its handler. It
/// bounds how far the reader reads ahead; past it, backpressure is TCP's.
const EVENT_DEPTH: usize = 4;

/// Bytes per socket `read` on the reader thread.
const READ_BYTES: usize = 16 * 1024;

/// Burst size at which a resume replay hands its frames to the writer, so
/// replaying a long journal never buffers it whole.
const REPLAY_BURST_BYTES: usize = 64 * 1024;

/// The reader thread: forwards every socket `read` to the handler as one
/// event, blocking on the bounded channel when the handler lags.
fn run_reader(mut conn: Conn, events: SyncSender<ConnEvent>) {
    let mut chunk = vec![0u8; READ_BYTES];
    loop {
        let event = match conn.read(&mut chunk) {
            Ok(0) => ConnEvent::Closed(None),
            Ok(n) => ConnEvent::Bytes(chunk[..n].to_vec()),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => ConnEvent::Closed(Some(e)),
        };
        let closed = matches!(event, ConnEvent::Closed(_));
        // A send error means the handler is gone; nobody needs more input.
        if events.send(event).is_err() || closed {
            return;
        }
    }
}

/// Owns the reader thread; dropping it stops and joins the thread.
struct ReaderThread {
    conn: Conn,
    handle: Option<JoinHandle<()>>,
}

impl Drop for ReaderThread {
    fn drop(&mut self) {
        // A read-half shutdown ends the reader's blocked `read` with EOF; a
        // reader blocked on a full channel fails its send instead, because
        // the inbox drops the receiver before this guard.
        self.conn.shutdown(std::net::Shutdown::Read);
        if let Some(handle) = self.handle.take() {
            drop(handle.join());
        }
    }
}

/// What [`Inbox::next`] yields.
pub(super) enum Input {
    /// One decoded client record.
    Record(Record),
    /// An event that completed no record: a ready batch, or bytes of a
    /// record still in flight. Emit whatever is ready.
    Wake,
}

/// The handler's side of its connection's input: socket bytes from the
/// reader thread, decoded into records here (the way [`RecordReader`]
/// decodes), interleaved with ready wake-ups from the pipelined workers.
pub(super) struct Inbox {
    /// Declared before `_reader`, so it drops first (see [`ReaderThread`]).
    events: Receiver<ConnEvent>,
    /// Cloned into every ready signal handed out.
    wake: SyncSender<ConnEvent>,
    codec: WireCodec,
    buf: Vec<u8>,
    start: usize,
    /// The reader reported EOF: what is buffered is all there is.
    closed: bool,
    _reader: ReaderThread,
}

impl Inbox {
    /// Starts the connection's reader thread.
    pub(super) fn spawn(conn: &Conn) -> ServerResult<Self> {
        let (wake, events) = mpsc::sync_channel(EVENT_DEPTH);
        let guard_conn = conn.try_clone()?;
        let reader_conn = conn.try_clone()?;
        let reader_wake = wake.clone();
        let handle = thread::Builder::new()
            .name("zipline-reader".into())
            .spawn(move || run_reader(reader_conn, reader_wake))
            .map_err(|e| ServerError::io("spawning reader thread", e))?;
        Ok(Self {
            events,
            wake,
            codec: WireCodec::new(),
            buf: Vec::with_capacity(READ_BYTES),
            start: 0,
            closed: false,
            _reader: ReaderThread {
                conn: guard_conn,
                handle: Some(handle),
            },
        })
    }

    /// The signal this connection's pipelined workers fire after each
    /// batch. `try_send` never blocks a worker; a wake-up it drops on a
    /// full channel is harmless (the wake argument in the module docs).
    pub(super) fn ready_signal(&self) -> ReadySignal {
        let wake = self.wake.clone();
        Arc::new(move || drop(wake.try_send(ConnEvent::Ready)))
    }

    /// The next record, or a wake-up when one event completed no record.
    /// Takes at most one event from the channel, blocking until it comes.
    /// `Ok(None)` is EOF at a record boundary; EOF inside a record is
    /// [`WireError::Truncated`].
    pub(super) fn next(&mut self) -> Result<Option<Input>, WireError> {
        if let Some(record) = self.decode()? {
            return Ok(Some(Input::Record(record)));
        }
        if self.closed {
            return self.ended();
        }
        match self.events.recv() {
            Ok(ConnEvent::Bytes(bytes)) => {
                if self.buf.is_empty() {
                    self.buf = bytes;
                } else {
                    self.buf.extend_from_slice(&bytes);
                }
                Ok(Some(self.decode()?.map_or(Input::Wake, Input::Record)))
            }
            Ok(ConnEvent::Ready) => Ok(Some(Input::Wake)),
            Ok(ConnEvent::Closed(error)) => {
                self.closed = true;
                match error {
                    Some(e) => Err(WireError::Io(e)),
                    None => self.ended(),
                }
            }
            // Unreachable while `wake` lives; read it as EOF all the same.
            Err(_) => {
                self.closed = true;
                self.ended()
            }
        }
    }

    /// Decodes one record from the buffer, compacting it when drained.
    fn decode(&mut self) -> Result<Option<Record>, WireError> {
        let Some((record, used)) = self.codec.decode(&self.buf[self.start..])? else {
            if self.start > 0 {
                self.buf.drain(..self.start);
                self.start = 0;
            }
            return Ok(None);
        };
        self.start += used;
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        }
        Ok(Some(record))
    }

    fn ended(&self) -> Result<Option<Input>, WireError> {
        if self.buf.len() == self.start {
            Ok(None)
        } else {
            Err(WireError::Truncated)
        }
    }
}

/// Frames bound for the client since the last flush. The stream sinks and
/// the handler append here; [`Outbox::flush`] hands the whole burst to the
/// writer in one channel send. `key` selects the flow-tagged kinds.
#[derive(Default)]
pub(super) struct Burst {
    codec: WireCodec,
    frames: Vec<u8>,
    payloads: u64,
    controls: u64,
}

impl Burst {
    pub(super) fn payload(
        &mut self,
        key: Option<FlowKey>,
        tag: Option<CodecId>,
        packet_type: PacketType,
        bytes: &[u8],
    ) {
        self.payloads += 1;
        match key {
            None => self
                .codec
                .encode_payload_into(tag, packet_type, bytes, &mut self.frames),
            Some(key) => {
                self.codec
                    .encode_flow_payload_into(key, tag, packet_type, bytes, &mut self.frames)
            }
        }
    }

    pub(super) fn control(&mut self, key: Option<FlowKey>, update: &DictionaryUpdate) {
        self.controls += 1;
        match key {
            None => self.codec.encode_control_into(update, &mut self.frames),
            Some(key) => self
                .codec
                .encode_flow_control_into(key, update, &mut self.frames),
        }
    }

    pub(super) fn record(&mut self, record: &Record) {
        self.codec.encode_into(record, &mut self.frames);
    }

    /// Frames every tagged emission the router queued since the last drain,
    /// in emission order (per flow: controls strictly before the payloads
    /// that need them).
    pub(super) fn flow_events(&mut self, events: Vec<FlowEvent>) {
        for event in events {
            match &event {
                FlowEvent::Payload {
                    key,
                    packet_type,
                    codec: tag,
                    bytes,
                } => self.payload(Some(*key), *tag, *packet_type, bytes),
                FlowEvent::Control { key, update } => self.control(Some(*key), update),
            }
        }
    }
}

/// A connection's output: the shared burst plus the ordered writer thread
/// it is flushed to. Dropping it flushes what is left, closes the channel
/// and waits for the writer to drain it.
pub(super) struct Outbox {
    shared: Arc<Shared>,
    /// Shared with the stream sinks, which append to it.
    pub(super) burst: Rc<RefCell<Burst>>,
    failed: Arc<AtomicBool>,
    writer: Option<(SyncSender<Vec<u8>>, JoinHandle<()>)>,
}

impl Outbox {
    pub(super) fn spawn(shared: &Arc<Shared>, conn: &Conn) -> ServerResult<Self> {
        let (tx, rx) = mpsc::sync_channel::<Vec<u8>>(shared.config.writer_depth.max(1));
        let failed = Arc::new(AtomicBool::new(false));
        let writer_conn = conn.try_clone()?;
        let writer_failed = Arc::clone(&failed);
        let handle = thread::Builder::new()
            .name("zipline-writer".into())
            .spawn(move || run_writer(writer_conn, rx, writer_failed))
            .map_err(|e| ServerError::io("spawning writer thread", e))?;
        Ok(Self {
            shared: Arc::clone(shared),
            burst: Rc::default(),
            failed,
            writer: Some((tx, handle)),
        })
    }

    pub(super) fn burst(&self) -> std::cell::RefMut<'_, Burst> {
        self.burst.borrow_mut()
    }

    /// Hands the burst to the writer in one send (blocking while the
    /// writer is `writer_depth` bursts behind), then reports a dead client
    /// as [`ServerError::Disconnected`].
    pub(super) fn flush(&self) -> ServerResult<()> {
        let mut burst = self.burst.borrow_mut();
        if !burst.frames.is_empty() {
            let stats = &self.shared.stats;
            stats
                .payloads_out
                .fetch_add(std::mem::take(&mut burst.payloads), Ordering::Relaxed);
            stats
                .controls_out
                .fetch_add(std::mem::take(&mut burst.controls), Ordering::Relaxed);
            stats
                .bytes_out
                .fetch_add(burst.frames.len() as u64, Ordering::Relaxed);
            let len = burst.frames.len();
            let frames = std::mem::replace(&mut burst.frames, Vec::with_capacity(len));
            drop(burst);
            let sent = self
                .writer
                .as_ref()
                .is_some_and(|(tx, _)| tx.send(frames).is_ok());
            if !sent {
                return Err(ServerError::Disconnected);
            }
        }
        if self.failed.load(Ordering::Relaxed) {
            return Err(ServerError::Disconnected);
        }
        Ok(())
    }

    /// Flushes once the burst holds [`REPLAY_BURST_BYTES`].
    pub(super) fn flush_large(&self) -> ServerResult<()> {
        if self.burst.borrow().frames.len() >= REPLAY_BURST_BYTES {
            self.flush()
        } else {
            Ok(())
        }
    }

    /// Frames a resume plan's replay tail and reseed installs (flow-tagged
    /// under `key`), flushing as the burst grows.
    pub(super) fn resume(
        &self,
        key: Option<FlowKey>,
        replay: &[CommittedEntry],
        reseed: &[DictionaryUpdate],
    ) -> ServerResult<()> {
        for entry in replay {
            match entry {
                CommittedEntry::Frame {
                    packet_type,
                    codec: tag,
                    bytes,
                } => self.burst().payload(key, *tag, *packet_type, bytes),
                CommittedEntry::Control(update) => self.burst().control(key, update),
            }
            self.shared
                .stats
                .replayed_entries
                .fetch_add(1, Ordering::Relaxed);
            self.flush_large()?;
        }
        for update in reseed {
            let update = update.clone();
            let record = match key {
                None => Record::Reseed(update),
                Some(key) => Record::FlowReseed { key, update },
            };
            let mut burst = self.burst();
            burst.controls += 1;
            burst.record(&record);
            drop(burst);
            self.flush_large()?;
        }
        Ok(())
    }
}

impl Drop for Outbox {
    fn drop(&mut self) {
        drop(self.flush());
        if let Some((tx, handle)) = self.writer.take() {
            drop(tx);
            drop(handle.join());
        }
    }
}

/// The connection handler's event loop, shared by both serve paths. It
/// waits on *client bytes or batch ready*, passes each decoded record — or
/// `None` for a wake-up — to `step`, and flushes the burst after each
/// step. `step` must end by emitting whatever is ready (a push does); the
/// wake argument in the module docs rests on it. Returns `Ok(true)` when
/// `step` saw `END`, `Ok(false)` when input ended at a record boundary or
/// under a graceful shutdown.
pub(super) fn run_events(
    shared: &Shared,
    inbox: &mut Inbox,
    out: &Outbox,
    mut step: impl FnMut(Option<Record>) -> ServerResult<bool>,
) -> ServerResult<bool> {
    loop {
        let record = match inbox.next() {
            Ok(Some(Input::Record(record))) => Some(record),
            Ok(Some(Input::Wake)) => None,
            // EOF at a record boundary: the client hung up without END, or
            // our graceful shutdown half-closed the socket. Either way the
            // data is whole; finish and commit it.
            Ok(None) => return input_ended(shared),
            // Shutdown cut the client mid-record; the torn record was never
            // pushed, everything before it commits.
            Err(WireError::Truncated) if shared.stop.load(Ordering::SeqCst) => {
                return input_ended(shared)
            }
            Err(e) => return Err(e.into()),
        };
        if step(record)? {
            return Ok(true);
        }
        out.flush()?;
    }
}

/// How a session ends when its input does: a graceful finish, unless the
/// server is aborting (a staged crash finishes nothing).
fn input_ended(shared: &Shared) -> ServerResult<bool> {
    if shared.abort.load(Ordering::SeqCst) {
        Err(ServerError::Disconnected)
    } else {
        Ok(false)
    }
}

/// The ordered writer: drains framed bursts to the socket through a
/// buffered writer, flushing whenever the queue runs empty (so closed-loop
/// clients are never left waiting on a full buffer).
fn run_writer(conn: Conn, rx: Receiver<Vec<u8>>, failed: Arc<AtomicBool>) {
    let mut writer = std::io::BufWriter::with_capacity(64 * 1024, conn);
    loop {
        let burst = match rx.try_recv() {
            Ok(burst) => burst,
            Err(TryRecvError::Empty) => {
                if writer.flush().is_err() {
                    break;
                }
                match rx.recv() {
                    Ok(burst) => burst,
                    Err(_) => return void_flush(writer),
                }
            }
            Err(TryRecvError::Disconnected) => return void_flush(writer),
        };
        if writer.write_all(&burst).is_err() {
            break;
        }
    }
    // Write half is dead: mark it and drain so producers never block on a
    // full channel into a dead pipe.
    failed.store(true, Ordering::Relaxed);
    for _ in rx.iter() {}
}

fn void_flush(mut writer: std::io::BufWriter<Conn>) {
    drop(writer.flush());
}
