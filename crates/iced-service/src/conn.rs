//! The connection core shared by the shard reactor and the cluster router.
//!
//! Both daemons serve the same newline-delimited protocol from one
//! single-threaded readiness loop, so everything between a client socket
//! and a complete request line lives here once:
//!
//! * **Framing** ([`LineReader`]) is incremental — bytes accumulate until
//!   a newline; a line past [`MAX_LINE_BYTES`] flips the reader into
//!   discard mode until the stream resyncs at the next newline, costing
//!   one `too_large` error instead of unbounded memory.
//! * **Ordering** is strict per connection: every line (and every
//!   line-level rejection) takes a monotonic *ticket*; finished responses
//!   park in a `BTreeMap` keyed by ticket and are released only in ticket
//!   order, so pipelined clients read answers in exactly the order they
//!   asked, however out of order the work behind them finishes.
//! * **Writes** ([`WriteBuf`]) never block the loop: bytes append to a
//!   buffer, the socket is polled with `POLLOUT` only while bytes remain,
//!   and partial writes simply stay queued.
//! * **Admission**: a connect past the connection cap is refused with one
//!   structured line; a line past the per-connection pipeline cap is
//!   answered `too_many_requests`.
//!
//! What happens to an admitted line is the caller's [`Handler`]: the
//! shard parses it, answers control verbs and warm hits, and hands work to
//! its pool; the router forwards it to a shard. Slots are
//! generation-checked: a [`Completion`] carries the connection *token* (a
//! globally unique accept ordinal) and is dropped if the slot was reused
//! by a newer connection in the meantime.

use std::collections::BTreeMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use crate::poll::{drain_wakes, poll, PollFd, POLLIN, POLLOUT};
use crate::proto::{render_err, RequestId, SvcError, MAX_LINE_BYTES};

/// Poll timeout: a liveness backstop only — completions and shutdown
/// arrive via the wake token, socket traffic via readiness.
const POLL_TIMEOUT_MS: i32 = 500;

/// Read granularity, and (×[`READ_ROUNDS`]) the per-socket fairness bound
/// for one loop iteration.
const READ_CHUNK: usize = 64 * 1024;

/// Max chunks read from one socket per iteration; level-triggered polling
/// re-reports leftover readability next time around.
pub(crate) const READ_ROUNDS: usize = 4;

/// Compact a write buffer once this many bytes are consumed.
const WRITE_COMPACT_BYTES: usize = 64 * 1024;

/// How long shutdown waits for unflushable sockets before closing them.
const FLUSH_BUDGET_MS: u64 = 5000;

/// What a daemon does with its connections' lines, the accounting it
/// keeps on them, and the rest of its loop iteration.
pub(crate) trait Handler {
    /// Handles one admitted request line (trimmed, non-empty). The answer
    /// goes to [`Conn::complete`] now, or comes back later from
    /// [`Handler::completions`].
    fn line(&mut self, c: &mut Conn, to: ReplyTo, line: &str);

    /// Accounts a line the core answered itself with `err`: an oversized
    /// line, or one past the pipeline cap.
    fn rejected(&mut self, rid: RequestId, err: &SvcError);

    /// A connection was accepted.
    fn opened(&mut self);

    /// A connection was swept or closed at exit.
    fn closed(&mut self);

    /// A connect was refused at the connection cap.
    fn refused(&mut self);

    /// Asked once per released response: tear it instead of sending it?
    /// A torn response goes out half-written, without its newline, and
    /// the connection is dropped (the shard's chaos write-drop site).
    fn tear(&mut self, _rid: RequestId, _line: &str) -> bool {
        false
    }

    /// Starts a loop iteration: is the daemon draining? From the first
    /// `true` on, the listener is closed.
    fn draining(&mut self) -> bool;

    /// Adds pollfds beyond the listener and the clients (shard links).
    fn poll_extra(&mut self, _fds: &mut Vec<PollFd>) {}

    /// Services those pollfds, in order, after the iteration's client lines.
    fn ready_extra(&mut self, _fds: &[PollFd], _scratch: &mut [u8]) {}

    /// Responses finished away from their connection since the last call.
    fn completions(&mut self) -> Vec<Completion>;

    /// While draining: may the loop exit? `flushed`: every client
    /// response is written; `expired`: the [`FLUSH_BUDGET_MS`] is spent.
    fn drained(&self, flushed: bool, expired: bool) -> bool;
}

/// Runs one daemon's readiness loop until its handler reports the drain
/// complete.
pub(crate) fn serve(
    listener: TcpListener,
    mut wake_rx: TcpStream,
    max_conns: usize,
    pipeline_cap: usize,
    h: &mut impl Handler,
) {
    let mut conns = Conns {
        max_conns,
        ..Conns::default()
    };
    let mut listener = Some(listener);
    let mut fds: Vec<PollFd> = Vec::new();
    let mut fd_slots: Vec<usize> = Vec::new();
    let mut scratch = vec![0u8; READ_CHUNK];
    let mut drain_deadline: Option<Instant> = None;

    loop {
        let draining = h.draining();
        if draining {
            // Dropping the listener refuses new connections immediately.
            listener = None;
        }

        fds.clear();
        fd_slots.clear();
        fds.push(PollFd::new(wake_rx.as_raw_fd(), POLLIN));
        if let Some(l) = &listener {
            fds.push(PollFd::new(l.as_raw_fd(), POLLIN));
        }
        let base = fds.len();
        for (slot, pfd) in conns.interests() {
            fds.push(pfd);
            fd_slots.push(slot);
        }
        let extra = fds.len();
        h.poll_extra(&mut fds);
        let _ = poll(&mut fds, POLL_TIMEOUT_MS);
        if fds[0].readable() {
            drain_wakes(&mut wake_rx);
        }

        if let Some(l) = &listener {
            if fds[1].readable() {
                conns.accept_all(l, h);
            }
        }
        for (k, &slot) in fd_slots.iter().enumerate() {
            if let (true, Some(c)) = (fds[base + k].readable(), &mut conns.slots[slot]) {
                c.read(h, pipeline_cap, &mut scratch);
            }
        }
        h.ready_extra(&fds[extra..], &mut scratch);

        // Route finished work to its connection, generation-checked so a
        // completion for a closed connection's reused slot is dropped.
        for done in h.completions() {
            conns.complete(done);
        }
        conns.flush_and_sweep(h);

        if draining {
            let deadline = *drain_deadline
                .get_or_insert_with(|| Instant::now() + Duration::from_millis(FLUSH_BUDGET_MS));
            if h.drained(conns.flushed(), Instant::now() >= deadline) {
                break;
            }
        }
    }
    conns.close_all(h);
}

/// Where a response goes: its ticket on a connection, and the request id
/// it answers. Delivered only while the slot still holds `token`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ReplyTo {
    pub(crate) slot: usize,
    pub(crate) token: u64,
    pub(crate) ticket: u64,
    pub(crate) rid: RequestId,
}

/// A response finished away from its connection, which may have moved on.
pub(crate) struct Completion {
    pub(crate) to: ReplyTo,
    pub(crate) line: String,
}

/// What [`LineReader::feed`] hands out.
pub(crate) enum Frame<'a> {
    /// One complete line, trimmed and non-empty.
    Line(&'a str),
    /// A line over the bound was skipped up to its newline.
    TooLarge,
}

/// Incremental newline framing with a discard-and-resync line bound.
#[derive(Default)]
pub(crate) struct LineReader {
    /// The unterminated tail of earlier reads.
    buf: Vec<u8>,
    /// An oversized line is being skipped until the next newline.
    discarding: bool,
}

impl LineReader {
    /// Splits freshly read bytes into frames for `on`, stopping early
    /// when `on` returns `false`. Lines longer than `max` bytes become
    /// one [`Frame::TooLarge`] each, reported at their newline.
    pub(crate) fn feed(
        &mut self,
        mut bytes: &[u8],
        max: usize,
        mut on: impl FnMut(Frame<'_>) -> bool,
    ) {
        while let Some(pos) = bytes.iter().position(|&b| b == b'\n') {
            let (head, rest) = bytes.split_at(pos);
            bytes = &rest[1..];
            let go = if self.discarding || self.buf.len() + head.len() > max {
                self.discarding = false;
                self.buf.clear();
                on(Frame::TooLarge)
            } else if self.buf.is_empty() {
                // Whole line inside this read: hand the borrowed bytes
                // straight down, no copy into the stash.
                deliver(head, &mut on)
            } else {
                self.buf.extend_from_slice(head);
                let line = std::mem::take(&mut self.buf);
                deliver(&line, &mut on)
            };
            if !go {
                return;
            }
        }
        if self.discarding {
            return;
        }
        if self.buf.len() + bytes.len() > max {
            // Too big already; skip until the next newline and answer
            // `too_large` then, keeping the stream framed.
            self.buf.clear();
            self.discarding = true;
        } else {
            self.buf.extend_from_slice(bytes);
        }
    }

    /// The stream ended: a line being discarded still reports, and a
    /// final unterminated line still counts.
    pub(crate) fn finish(&mut self, mut on: impl FnMut(Frame<'_>) -> bool) {
        if std::mem::take(&mut self.discarding) {
            self.buf.clear();
            on(Frame::TooLarge);
        } else if !self.buf.is_empty() {
            let line = std::mem::take(&mut self.buf);
            deliver(&line, &mut on);
        }
    }
}

fn deliver(bytes: &[u8], on: &mut impl FnMut(Frame<'_>) -> bool) -> bool {
    let text = String::from_utf8_lossy(bytes);
    let line = text.trim();
    line.is_empty() || on(Frame::Line(line))
}

/// A non-blocking write buffer: what the socket refuses stays queued.
#[derive(Default)]
pub(crate) struct WriteBuf {
    buf: Vec<u8>,
    /// Consumed prefix of `buf`.
    pos: usize,
}

impl WriteBuf {
    /// Are bytes waiting for the socket?
    pub(crate) fn pending(&self) -> bool {
        self.pos < self.buf.len()
    }

    /// Queues one line and its newline.
    pub(crate) fn push_line(&mut self, line: &str) {
        self.buf.extend_from_slice(line.as_bytes());
        self.buf.push(b'\n');
    }

    /// Pushes queued bytes without blocking. Returns `false` once the
    /// peer is gone.
    pub(crate) fn flush(&mut self, mut stream: &TcpStream) -> bool {
        while self.pos < self.buf.len() {
            match stream.write(&self.buf[self.pos..]) {
                Ok(0) => return false,
                Ok(n) => self.pos += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        } else if self.pos > WRITE_COMPACT_BYTES {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        true
    }
}

/// One client connection in the slab.
pub(crate) struct Conn {
    stream: TcpStream,
    /// Globally unique accept ordinal; the `conn` half of request ids and
    /// the generation tag completions are checked against.
    pub(crate) token: u64,
    /// This connection's slab index (the routing key completions carry).
    pub(crate) slot: usize,
    /// Requests read so far (the `seq` half of request ids).
    seq: u64,
    reader: LineReader,
    out: WriteBuf,
    /// Next ticket to assign to an incoming line.
    next_ticket: u64,
    /// Next ticket to release into the write buffer.
    next_release: u64,
    /// Finished-but-unreleased responses and their request ids, keyed by
    /// ticket.
    pending: BTreeMap<u64, (RequestId, String)>,
    /// Tickets assigned but not yet released — the pipeline depth.
    outstanding: usize,
    read_closed: bool,
    dead: bool,
}

impl Conn {
    fn new(stream: TcpStream, token: u64, slot: usize) -> Conn {
        Conn {
            stream,
            token,
            slot,
            seq: 0,
            reader: LineReader::default(),
            out: WriteBuf::default(),
            next_ticket: 0,
            next_release: 0,
            pending: BTreeMap::new(),
            outstanding: 0,
            read_closed: false,
            dead: false,
        }
    }

    /// Parks a response under its ticket until every earlier ticket has
    /// been released.
    pub(crate) fn complete(&mut self, to: ReplyTo, line: String) {
        self.pending.insert(to.ticket, (to.rid, line));
    }

    /// Reads what the socket has, up to [`READ_ROUNDS`] chunks, and hands
    /// every complete line to `h`.
    fn read(&mut self, h: &mut impl Handler, pipeline_cap: usize, scratch: &mut [u8]) {
        for _ in 0..READ_ROUNDS {
            match self.stream.read(scratch) {
                Ok(0) => {
                    self.read_closed = true;
                    break;
                }
                Ok(n) => self.consume(h, pipeline_cap, Some(&scratch[..n])),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
        if self.read_closed && !self.dead {
            // The peer half-closed; a final unterminated line still counts.
            self.consume(h, pipeline_cap, None);
        }
    }

    /// Frames freshly read `bytes` (`None`: the end of the stream) and
    /// admits every line.
    fn consume(&mut self, h: &mut impl Handler, pipeline_cap: usize, bytes: Option<&[u8]>) {
        // Out of the connection while it feeds, so each line can borrow
        // the reader's bytes while the handler holds the connection.
        let mut reader = std::mem::take(&mut self.reader);
        let on = |frame: Frame<'_>| {
            self.admit(h, pipeline_cap, frame);
            true
        };
        match bytes {
            Some(bytes) => reader.feed(bytes, MAX_LINE_BYTES, on),
            None => reader.finish(on),
        }
        self.reader = reader;
    }

    /// Takes the next ticket for a frame, then hands the line to `h` or
    /// answers it here when it is oversized or past the pipeline cap.
    fn admit(&mut self, h: &mut impl Handler, pipeline_cap: usize, frame: Frame<'_>) {
        self.seq += 1;
        let to = ReplyTo {
            slot: self.slot,
            token: self.token,
            ticket: self.next_ticket,
            rid: RequestId {
                conn: self.token,
                seq: self.seq,
            },
        };
        self.next_ticket += 1;
        self.outstanding += 1;
        let err = match frame {
            Frame::Line(line) if self.outstanding <= pipeline_cap => {
                return h.line(self, to, line);
            }
            Frame::Line(_) => SvcError::new(
                "too_many_requests",
                format!(
                    "connection has {} unanswered requests (pipeline cap {pipeline_cap}); read responses before sending more",
                    self.outstanding - 1,
                ),
            ),
            Frame::TooLarge => SvcError::new("too_large", "request line exceeds 1 MiB"),
        };
        h.rejected(to.rid, &err);
        self.complete(to, render_err(0, Some(to.rid), None, &err));
    }

    /// Releases parked responses in strict ticket order into the write
    /// buffer, asking `h` once per line whether to tear it.
    fn release(&mut self, h: &mut impl Handler) {
        while let Some((rid, line)) = self.pending.remove(&self.next_release) {
            self.next_release += 1;
            self.outstanding -= 1;
            if h.tear(rid, &line) {
                // Half the bytes, no newline, then a hard drop — as a dying
                // peer or failing NIC would leave it.
                let half = &line.as_bytes()[..line.len() / 2];
                self.out.buf.extend_from_slice(half);
                self.flush();
                let _ = self.stream.shutdown(Shutdown::Both);
                self.dead = true;
                return;
            }
            self.out.push_line(&line);
        }
    }

    fn flush(&mut self) {
        if !self.out.flush(&self.stream) {
            self.dead = true;
        }
    }

    /// Torn, or done: the peer closed its send half and every admitted
    /// line is answered and written.
    fn finished(&self) -> bool {
        self.dead || (self.read_closed && self.outstanding == 0 && !self.out.pending())
    }
}

/// The connection slab: every client connection of one loop.
#[derive(Default)]
struct Conns {
    slots: Vec<Option<Conn>>,
    free: Vec<usize>,
    next_token: u64,
    open: usize,
    max_conns: usize,
}

impl Conns {
    /// A pollfd, with its slot, for every connection that wants reading
    /// or has bytes to write.
    fn interests(&self) -> impl Iterator<Item = (usize, PollFd)> + '_ {
        self.slots.iter().enumerate().filter_map(|(i, c)| {
            let c = c.as_ref().filter(|c| !c.dead)?;
            let mut interest = 0i16;
            if !c.read_closed {
                interest |= POLLIN;
            }
            if c.out.pending() {
                interest |= POLLOUT;
            }
            (interest != 0).then(|| (i, PollFd::new(c.stream.as_raw_fd(), interest)))
        })
    }

    /// Accepts every pending connect, refusing those past the cap.
    fn accept_all(&mut self, listener: &TcpListener, h: &mut impl Handler) {
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    let _ = stream.set_nonblocking(true);
                    // Responses are single short lines; Nagle would add a
                    // delayed-ACK round trip to every warm hit.
                    let _ = stream.set_nodelay(true);
                    if self.open >= self.max_conns {
                        h.refused();
                        refuse(stream, self.max_conns);
                        continue;
                    }
                    h.opened();
                    self.open += 1;
                    // 1-based, in accept order — the `conn` half of every
                    // request id on this connection.
                    self.next_token += 1;
                    let slot = self.free.pop().unwrap_or(self.slots.len());
                    let conn = Conn::new(stream, self.next_token, slot);
                    if slot == self.slots.len() {
                        self.slots.push(Some(conn));
                    } else {
                        self.slots[slot] = Some(conn);
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    /// Parks a finished response, unless its connection is gone.
    fn complete(&mut self, done: Completion) {
        if let Some(c) = self.slots.get_mut(done.to.slot).and_then(Option::as_mut) {
            if c.token == done.to.token {
                c.complete(done.to, done.line);
            }
        }
    }

    /// Releases in-order responses and pushes bytes (cheap when idle),
    /// then closes torn and finished connections, freeing their slots.
    fn flush_and_sweep(&mut self, h: &mut impl Handler) {
        for (i, entry) in self.slots.iter_mut().enumerate() {
            let Some(c) = entry else { continue };
            if !c.dead {
                c.release(h);
                c.flush();
            }
            if let Some(c) = entry.take_if(|c| c.finished()) {
                let _ = c.stream.shutdown(Shutdown::Both);
                h.closed();
                self.open -= 1;
                self.free.push(i);
            }
        }
    }

    /// Is every response released and written?
    fn flushed(&self) -> bool {
        self.slots
            .iter()
            .flatten()
            .all(|c| c.pending.is_empty() && !c.out.pending())
    }

    /// Closes every connection (at exit).
    fn close_all(&mut self, h: &mut impl Handler) {
        for c in self.slots.drain(..).flatten() {
            let _ = c.stream.shutdown(Shutdown::Both);
            h.closed();
        }
    }
}

/// Answers an over-limit connect with one structured error line and
/// closes it. No ordinal is spent.
fn refuse(mut stream: TcpStream, max_conns: usize) {
    let err = SvcError::new(
        "too_many_connections",
        format!("connection limit ({max_conns}) reached; retry later"),
    );
    let mut line = render_err(0, None, None, &err);
    line.push('\n');
    // Best effort: the line is far smaller than a fresh socket's send
    // buffer, so a nonblocking write takes it whole.
    let _ = stream.write_all(line.as_bytes());
    let _ = stream.shutdown(Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reactor::Shard;
    use crate::server::{test_shared, Shared};
    use std::sync::Arc;

    /// A connection backed by a loopback socket nobody reads from the
    /// kernel side; lines are fed as if just read.
    fn test_conn() -> (Conn, TcpListener) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let stream = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        stream.set_nonblocking(true).expect("nonblocking");
        (Conn::new(stream, 1, 0), listener)
    }

    /// Feeds `bytes` through the shard's handler as if just read (`None`:
    /// the end of the stream).
    fn feed(shared: &Arc<Shared>, c: &mut Conn, bytes: Option<&[u8]>) {
        c.consume(&mut Shard { shared }, shared.pipeline_cap, bytes);
    }

    /// Releases what is parked and returns everything queued to write.
    fn release(shared: &Arc<Shared>, c: &mut Conn) -> String {
        c.release(&mut Shard { shared });
        String::from_utf8_lossy(&c.out.buf).into_owned()
    }

    #[test]
    fn incremental_framing_reassembles_split_lines() {
        let shared = test_shared();
        let (mut c, _l) = test_conn();
        feed(&shared, &mut c, Some(b"{\"verb\":\"heal"));
        assert_eq!(c.pending.len(), 0, "half a line is not a request");
        feed(&shared, &mut c, Some(b"thz\"}\n{\"verb\":\"healthz\"}\n"));
        assert_eq!(c.pending.len(), 2, "both lines parsed once completed");
        assert_eq!(c.seq, 2);
        // Released strictly in ticket order.
        let text = release(&shared, &mut c);
        assert_eq!(text.matches("\"req\":\"c1-1\"").count(), 1);
        assert_eq!(text.matches("\"req\":\"c1-2\"").count(), 1);
        assert!(
            text.find("c1-1").expect("first") < text.find("c1-2").expect("second"),
            "responses leave in request order"
        );
    }

    #[test]
    fn oversized_lines_discard_and_resync() {
        let shared = test_shared();
        let (mut c, _l) = test_conn();
        // Feed > MAX_LINE_BYTES without a newline: discard mode.
        let big = vec![b'x'; MAX_LINE_BYTES + 10];
        feed(&shared, &mut c, Some(&big));
        assert!(c.reader.discarding);
        assert!(c.reader.buf.is_empty(), "discarded bytes are not buffered");
        // Resync at the newline → one too_large error, then a clean parse.
        feed(&shared, &mut c, Some(b"tail\n{\"verb\":\"healthz\"}\n"));
        assert!(!c.reader.discarding);
        assert_eq!(c.pending.len(), 2);
        let text = release(&shared, &mut c);
        assert!(text.contains("too_large"), "{text}");
        assert!(text.contains("\"result\""), "healthz after resync: {text}");
    }

    #[test]
    fn eof_flushes_an_unterminated_final_line() {
        let shared = test_shared();
        let (mut c, _l) = test_conn();
        feed(&shared, &mut c, Some(b"{\"verb\":\"healthz\"}"));
        assert_eq!(c.pending.len(), 0);
        // What `read` does at EOF:
        feed(&shared, &mut c, None);
        assert_eq!(c.pending.len(), 1, "final line processed at EOF");
    }

    #[test]
    fn pipeline_cap_rejects_excess_unanswered_requests() {
        let shared = test_shared();
        let cap = shared.pipeline_cap;
        let (mut c, _l) = test_conn();
        for _ in 0..cap + 3 {
            feed(&shared, &mut c, Some(b"{\"verb\":\"healthz\"}\n"));
        }
        // Control verbs complete inline but stay parked until released,
        // so `outstanding` models exactly what a non-reading client owes.
        assert_eq!(c.pending.len(), cap + 3);
        let rejected = c
            .pending
            .values()
            .filter(|(_, line)| line.contains("too_many_requests"))
            .count();
        assert_eq!(rejected, 3, "requests past the cap answer with the limit");
        release(&shared, &mut c);
        assert_eq!(c.outstanding, 0);
    }
}
