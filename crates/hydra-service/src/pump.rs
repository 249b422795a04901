//! The one cooperative wire pump: regenerates a relation's row range in
//! governor-paced pulses on the worker pool, for every wire protocol.
//!
//! A [`Pump`] owns a stream from its first pulse to its trailer.  Each
//! [`poll`](Pump::poll) is one step of a small state machine:
//!
//! * the connection's write queue is past high water → `AwaitDrain`;
//! * [`VelocityGovernor::next_pulse`] says wait → `Sleep` on the timer
//!   wheel; a throttled stream sleeps until its *whole* pulse is due, which
//!   puts each batch on the wire when per-row pacing would have completed
//!   it;
//! * it says emit → walk the pulse's blocks through the protocol's
//!   [`BlockEncoder`], push the output, count the rows
//!   (`hydra_stream_rows_total`) → `Yield`;
//! * it says drained → push the encoder's buffered output, settle the
//!   datagen account ([`Hydra::record_generation`]), close the span, then
//!   push the trailer → `Done`.  A client that reads the trailer and then
//!   scrapes finds the stream fully counted.
//!
//! A pump that stops early — a failed pulse, or a connection that died
//! mid-stream and dropped its task — settles the rows it did generate and
//! closes its span as an error, so every generated tuple is in
//! `hydra_datagen_rows_total` and every aborted stream in
//! `hydra_request_errors_total`.
//!
//! A pulse is the encoder's batch, capped at [`SLICE_ROWS`].  The pump
//! streams from the registry version it was opened on, borrowed through its
//! `Arc` (nothing is copied per request), and seeks each pulse through one
//! block index built at its first pulse.  The protocol keeps only what
//! differs: request validation, its header, the encoder, and how a
//! mid-stream failure is reported.

use crate::registry::RegistryEntry;
use hydra_core::session::Hydra;
use hydra_datagen::generator::GenerationStats;
use hydra_datagen::governor::{Pulse, VelocityGovernor};
use hydra_datagen::stream::{RowBlock, TupleStream};
pub use hydra_engine::error::EngineError;
use hydra_obs::{Counter, Span};
use hydra_reactor::{ConnHandle, TaskPoll};
use hydra_summary::index::PkBlockIndex;
use std::ops::Range;
use std::sync::Arc;

/// Most rows one pulse generates.  Small enough that thousands of
/// concurrent streams interleave fairly on a fixed pool; large enough that
/// per-pulse seek and scheduling overhead is noise.
pub const SLICE_ROWS: u64 = 8192;

/// A protocol's encoding of regenerated blocks.
pub trait BlockEncoder {
    /// Why a pulse failed: an encoding error, or (through `From`) a
    /// generation error.
    type Error: From<EngineError>;

    /// Rows the protocol batches together; a pulse is one batch, capped at
    /// [`SLICE_ROWS`].
    fn batch_rows(&self) -> u64;

    /// Encodes every tuple of `block`, appending whatever output is ready
    /// to `out` (an encoder may hold a partial batch across pulses).
    fn encode(&mut self, block: &RowBlock<'_>, out: &mut Vec<u8>) -> Result<(), Self::Error>;

    /// Appends the output still held once the last tuple is encoded, and
    /// returns the message closing the finished `run`.
    fn finish(&mut self, run: &GenerationStats, out: &mut Vec<u8>) -> Result<Vec<u8>, Self::Error>;
}

/// One stream of a relation's row range through an encoder `E`.
pub struct Pump<E: BlockEncoder> {
    session: Hydra,
    /// The registry version being streamed.
    entry: Arc<RegistryEntry>,
    table: String,
    /// The relation's block index, built at the first pulse.
    index: Option<PkBlockIndex>,
    /// The rows still to generate.
    rows: Range<u64>,
    governor: VelocityGovernor,
    encoder: E,
    /// The request's span, open until the trailer or an abort.
    span: Option<Span>,
    stream_rows: Arc<Counter>,
}

impl<E: BlockEncoder> Pump<E> {
    /// A pump streaming `rows` of `table` (already validated against
    /// `entry`) through `encoder`, paced at `rows_per_sec` or else the
    /// session's velocity, and recording under `span` until it finishes.
    pub fn new(
        session: &Hydra,
        entry: Arc<RegistryEntry>,
        table: &str,
        rows: Range<u64>,
        rows_per_sec: Option<f64>,
        encoder: E,
        span: Span,
    ) -> Pump<E> {
        let governor = match rows_per_sec.or(session.velocity()) {
            Some(rate) => VelocityGovernor::with_rate(rate),
            None => VelocityGovernor::unthrottled(),
        };
        Pump {
            session: session.clone(),
            entry,
            table: table.to_string(),
            index: None,
            rows,
            governor,
            encoder,
            span: Some(span),
            stream_rows: session.metrics().counter("hydra_stream_rows_total"),
        }
    }

    /// One step of the stream (see the [module docs](self)).  `Done` means
    /// the trailer is pushed.  On an error the pump has already settled
    /// and closed its span as failed; the caller reports the failure.
    pub fn poll(&mut self, conn: &ConnHandle) -> Result<TaskPoll, E::Error> {
        self.step(conn).inspect_err(|_| self.abort())
    }

    fn step(&mut self, conn: &ConnHandle) -> Result<TaskPoll, E::Error> {
        if conn.over_high_water() {
            return Ok(TaskPoll::AwaitDrain);
        }
        let mut out = Vec::new();
        let pulse_rows = self.encoder.batch_rows().min(SLICE_ROWS);
        match self
            .governor
            .next_pulse(self.rows.end - self.rows.start, pulse_rows)
        {
            Pulse::Wait(wait) => Ok(TaskPoll::Sleep(wait)),
            Pulse::Emit(goal) => {
                // Output encoded before a failure still goes out ahead of
                // the caller's error report.
                let walked = self.walk(goal, &mut out);
                conn.push(out);
                walked?;
                self.rows.start += goal;
                self.governor.note(goal);
                self.stream_rows.add(goal);
                Ok(TaskPoll::Yield)
            }
            Pulse::Drained => {
                let run = self.governor.stats(&self.table);
                let trailer = self.encoder.finish(&run, &mut out);
                conn.push(out);
                let trailer = trailer?;
                self.settle(&run, false);
                conn.push(trailer);
                Ok(TaskPoll::Done)
            }
        }
    }

    /// Encodes the next `goal` rows.  Each pulse re-seeks through the
    /// relation's block index (O(log blocks)); range concatenation is
    /// bit-identical to one continuous scan.
    fn walk(&mut self, goal: u64, out: &mut Vec<u8>) -> Result<(), E::Error> {
        let (table, summary) = self.entry.generator().relation(&self.table)?;
        let index = self.index.get_or_insert_with(|| summary.block_index());
        let range = self.rows.start..self.rows.start + goal;
        let mut tuples = TupleStream::with_range_using(table, summary, index, range);
        while let Some(block) = tuples.next_block(u64::MAX) {
            self.encoder.encode(&block, out)?;
        }
        Ok(())
    }

    /// Settles `run`'s datagen account and closes the span, as a failure
    /// when `failed` — once: a settled stream ignores later calls.
    fn settle(&mut self, run: &GenerationStats, failed: bool) {
        if let Some(mut span) = self.span.take() {
            self.session.record_generation(run);
            if failed {
                span.set_error();
            }
        }
    }

    /// Settles the rows generated so far and closes the span as failed:
    /// the stream stopped before its trailer.
    fn abort(&mut self) {
        let run = self.governor.stats(&self.table);
        self.settle(&run, true);
    }
}

impl<E: BlockEncoder> Drop for Pump<E> {
    fn drop(&mut self) {
        self.abort();
    }
}
