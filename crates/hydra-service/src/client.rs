//! The typed client for the regeneration service.
//!
//! A [`HydraClient`] wraps one TCP connection and exposes the request
//! families as methods.  Connections are persistent: a client can publish,
//! introspect, stream and run scenarios back to back over the same socket.

use crate::error::{ServiceError, ServiceResult};
use crate::protocol::{
    read_frame, write_frame, DeltaPublished, QueryRequest, Request, Response, ScenarioReport,
    ScenarioSpec, StreamRequest, StreamStart, StreamStats, SummaryDetail, SummaryInfo,
};
use hydra_core::transfer::TransferPackage;
use hydra_engine::row::Row;
use hydra_query::delta::WorkloadDelta;
use hydra_query::exec::QueryAnswer;
use serde::Serialize;
use std::io::{BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// A connection to a regeneration server.
#[derive(Debug)]
pub struct HydraClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl HydraClient {
    /// Connects to a server.
    pub fn connect(addr: impl ToSocketAddrs) -> ServiceResult<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(HydraClient {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
        })
    }

    fn send<T: Serialize>(&mut self, request: &T) -> ServiceResult<()> {
        write_frame(&mut self.writer, request)?;
        self.writer.flush()?;
        Ok(())
    }

    fn receive(&mut self) -> ServiceResult<Response> {
        match read_frame::<_, Response>(&mut self.reader)? {
            Some(response) => Ok(response),
            None => Err(ServiceError::Protocol(
                "server closed the connection mid-exchange".to_string(),
            )),
        }
    }

    /// Uploads a package; the server solves it and registers the summary
    /// under `name`, returning its registry description.
    pub fn publish(&mut self, name: &str, package: &TransferPackage) -> ServiceResult<SummaryInfo> {
        self.send(&Request::Publish {
            name: name.to_string(),
            package: package.clone(),
        })?;
        match self.receive()? {
            Response::Published(info) => Ok(info),
            other => Self::unexpected(other),
        }
    }

    /// Evolves a registered summary incrementally: ships a
    /// [`WorkloadDelta`] (queries added / retired / re-annotated, revised
    /// row counts); the server merges it, re-solves only the touched
    /// relations, bumps the version atomically, and returns the structural
    /// diff plus the per-relation reuse/re-solve report.
    pub fn delta_publish(
        &mut self,
        name: &str,
        delta: &WorkloadDelta,
    ) -> ServiceResult<DeltaPublished> {
        self.send(&Request::DeltaPublish {
            name: name.to_string(),
            delta: delta.clone(),
        })?;
        match self.receive()? {
            Response::DeltaPublished(published) => Ok(published),
            other => Self::unexpected(other),
        }
    }

    /// Lists every summary registered on the server.
    pub fn list(&mut self) -> ServiceResult<Vec<SummaryInfo>> {
        self.send(&Request::List)?;
        match self.receive()? {
            Response::SummaryList(infos) => Ok(infos),
            other => Self::unexpected(other),
        }
    }

    /// Describes one registered summary relation by relation.
    pub fn describe(&mut self, name: &str) -> ServiceResult<SummaryDetail> {
        self.send(&Request::Describe {
            name: name.to_string(),
        })?;
        match self.receive()? {
            Response::Described(detail) => Ok(detail),
            other => Self::unexpected(other),
        }
    }

    /// Answers an analytical aggregate (COUNT / SUM / AVG with predicates,
    /// FK joins and GROUP BY) over a registered summary.  In-class queries
    /// are answered summary-direct on the server — no tuples are
    /// regenerated, no rows are streamed; the answer arrives as one frame —
    /// and `QueryAnswer::strategy()` reports which path answered.
    pub fn query(&mut self, name: &str, sql: &str) -> ServiceResult<QueryAnswer> {
        self.query_request(QueryRequest::new(name, sql))
    }

    /// [`HydraClient::query`] with full request control (e.g.
    /// [`QueryRequest::summary_only`], which turns an out-of-class query
    /// into a reported error instead of a server-side tuple scan).
    pub fn query_request(&mut self, request: QueryRequest) -> ServiceResult<QueryAnswer> {
        self.send(&Request::Query(request))?;
        match self.receive()? {
            Response::QueryResult(answer) => Ok(answer),
            other => Self::unexpected(other),
        }
    }

    /// Runs a server-side what-if re-solve over a registered summary.
    pub fn scenario(&mut self, name: &str, spec: &ScenarioSpec) -> ServiceResult<ScenarioReport> {
        self.send(&Request::Scenario {
            name: name.to_string(),
            spec: spec.clone(),
        })?;
        match self.receive()? {
            Response::ScenarioOutcome(report) => Ok(report),
            other => Self::unexpected(other),
        }
    }

    /// Streams tuples, handing each batch to `on_batch` as it arrives.
    /// Returns the stream header and trailer statistics.
    pub fn stream_with(
        &mut self,
        request: StreamRequest,
        mut on_batch: impl FnMut(Vec<Row>),
    ) -> ServiceResult<(StreamStart, StreamStats)> {
        self.send(&Request::Stream(request))?;
        let header = match self.receive()? {
            Response::StreamStart(header) => header,
            other => return Self::unexpected(other),
        };
        loop {
            match self.receive()? {
                Response::Batch { rows } => on_batch(rows),
                Response::StreamEnd(stats) => return Ok((header, stats)),
                other => return Self::unexpected(other),
            }
        }
    }

    /// Streams tuples and collects them in plan order.
    pub fn stream_collect(
        &mut self,
        request: StreamRequest,
    ) -> ServiceResult<(Vec<Row>, StreamStats)> {
        let mut rows = Vec::new();
        let (_, stats) = self.stream_with(request, |batch| rows.extend(batch))?;
        Ok((rows, stats))
    }

    /// Fetches a snapshot of the server's metrics registry as flat samples
    /// (the frame-protocol twin of `GET /metrics`; histograms arrive
    /// pre-expanded into `_count`/`_sum`/`_p50`/`_p90`/`_p99`/`_max`).
    pub fn stats(&mut self) -> ServiceResult<Vec<crate::protocol::MetricSample>> {
        self.send(&Request::Stats)?;
        match self.receive()? {
            Response::Stats { samples } => Ok(samples),
            other => Self::unexpected(other),
        }
    }

    /// Asks the server to shut down cleanly.
    pub fn shutdown(&mut self) -> ServiceResult<()> {
        self.send(&Request::Shutdown)?;
        match self.receive()? {
            Response::ShuttingDown => Ok(()),
            other => Self::unexpected(other),
        }
    }

    fn unexpected<T>(response: Response) -> ServiceResult<T> {
        match response {
            Response::Error { message } => Err(ServiceError::Remote(message)),
            other => Err(ServiceError::Protocol(format!(
                "unexpected response frame: {other:?}"
            ))),
        }
    }
}
