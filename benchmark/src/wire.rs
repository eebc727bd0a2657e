//! What the three wire workloads share: one `slicer_net::Server` over a
//! one-table `TableFleet`, one `slicer_client::Client` on loopback TCP,
//! and the in-process replay of a wire op through the public layer calls.

use crate::harness::{put_median, time_per_call, Metrics, Window};
use crate::trace::Tracer;
use slicer_client::{Client, ClientConfig, ScanReply};
use slicer_core::HillClimb;
use slicer_cost::{CostModel, HddCostModel};
use slicer_lifecycle::{FleetConfig, ScanTarget, TableFleet, TableManager, TableManagerConfig};
use slicer_model::Query;
use slicer_net::{
    encode_request, encode_response, FrameBuffer, Request, Response, Server, ServerConfig,
    ServerHandle,
};
use slicer_storage::{ScanExecutor, ScanResult, StoredTable};

/// The one table every wire workload serves.
pub const TABLE: &str = "lineitem";

/// Root span names of the two op classes on the wire.
pub const MAIN_SCAN: &str = "main:client.scan";
pub const SIDE_SCAN: &str = "side:client.scan";
pub const MAIN_INGEST: &str = "main:client.ingest";

/// Request id of every replayed frame; nothing reads it back.
const REPLAY_ID: u64 = 1;

/// A served table and the client talking to it.
pub struct Served {
    pub handle: ServerHandle,
    pub client: Client,
    /// The table handle and disk the server scans with.
    pub target: ScanTarget,
    pub cost: HddCostModel,
    /// Frame sizes of replayed main ops: (request, response) bytes.
    pub main_frames: Vec<(usize, usize)>,
}

impl Served {
    /// Serve `table` under a HillClimb-advised manager. The admission
    /// bound is raised to the server's one-hour clamp so no scan is shed.
    pub fn spawn(table: StoredTable, cfg: TableManagerConfig) -> Served {
        let cost = HddCostModel::paper_testbed();
        let mut fleet = TableFleet::new(FleetConfig::default());
        fleet.add_table(
            TABLE,
            TableManager::new(table, Box::new(HillClimb::new()), cost, cfg),
        );
        let target = fleet.scan_target(TABLE).expect("table was just registered");
        let handle = Server::spawn(
            fleet,
            ServerConfig {
                admission_max_io_seconds: 3600.0,
                ..ServerConfig::default()
            },
        )
        .expect("bind a loopback port");
        let client = Client::connect(handle.addr(), ClientConfig::default());
        Served {
            handle,
            client,
            target,
            cost,
            main_frames: Vec::new(),
        }
    }

    /// One wire scan, gated: the reply must carry `want`'s checksum for
    /// the generation it pinned. Returns the reply and its modeled seconds.
    pub fn scan(
        &mut self,
        query: &Query,
        want: Option<(u64, u64)>,
    ) -> Result<(ScanReply, f64), String> {
        let reply = self.client.scan(TABLE, query).map_err(|e| e.to_string())?;
        if let Some((generation, checksum)) = want {
            if (reply.generation, reply.checksum) != (generation, checksum) {
                return Err(format!(
                    "{}: checksum {:#x} at generation {}, oracle {checksum:#x} at {generation}",
                    query.name, reply.checksum, reply.generation
                ));
            }
        }
        let model_s = reply.io_seconds;
        Ok((reply, model_s))
    }

    /// Replay the request side of a wire op under `root`: encode the
    /// frame, decode it back. Returns the frame length.
    pub fn replay_request(&self, t: &mut Tracer, root: usize, request: &Request) -> usize {
        let frame = t.child(root, "net.frame.encode_request", || {
            encode_request(REPLAY_ID, request)
        });
        t.child(root, "net.frame.decode_request", || decode_frame(&frame));
        frame.len()
    }

    /// Replay the response side of a wire op under `root`.
    pub fn replay_response(&self, t: &mut Tracer, root: usize, response: &Response) -> usize {
        let frame = t.child(root, "net.frame.encode_response", || {
            encode_response(REPLAY_ID, response)
        });
        t.child(root, "net.frame.decode_response", || decode_frame(&frame));
        frame.len()
    }

    /// Replay a wire scan in-process, on the snapshot the request pinned,
    /// through the calls `handle_scan` makes: frame → pin → re-stamp →
    /// price → scan → book → frame. The replay must reproduce the reply.
    pub fn replay_scan(
        &mut self,
        t: &mut Tracer,
        root: usize,
        main: bool,
        query: &Query,
        reply: &ScanReply,
    ) -> Result<ScanResult, String> {
        let request = Request::Scan {
            table: TABLE.to_string(),
            query_name: query.name.clone(),
            weight: query.weight,
            attrs: query.referenced.iter().map(|a| a.index() as u16).collect(),
            predicate: query.predicate.clone(),
            deadline_micros: 0,
        };
        let request_len = self.replay_request(t, root, &request);
        let table = &self.target.table;
        let snapshot = t.child(root, "storage.engine.snapshot", || table.snapshot());
        if snapshot.generation != reply.generation {
            return Err(format!(
                "replay pinned generation {}, the request pinned {}",
                snapshot.generation, reply.generation
            ));
        }
        let mut query = query.clone();
        if let Some(p) = query.predicate.take() {
            let kept = t.child(root, "storage.prune.prune_fraction", || {
                snapshot.prune_fraction(&p)
            });
            query.predicate = Some(p.with_kept_fraction(kept));
        }
        let cost = &self.cost;
        t.child(root, "cost.query_cost", || {
            cost.query_cost(&table.schema, &snapshot.layout, &query)
        });
        let result = t.child(root, "storage.executor.scan_query_snapshot", || {
            ScanExecutor::new(table).scan_query_snapshot(&snapshot, &query, &self.target.disk)
        });
        if (result.checksum, result.bytes_read) != (reply.checksum, reply.bytes_read) {
            return Err(format!(
                "{}: replay diverged from the wire reply",
                query.name
            ));
        }
        let booked = query.clone();
        let handle = &self.handle;
        t.child(root, "lifecycle.record_scan", || {
            handle.with_fleet(|f| f.record_scan(TABLE, booked, &result, &snapshot))
        })
        .map_err(|e| e.to_string())?;
        let response = Response::ScanOk {
            checksum: result.checksum,
            bytes_read: result.bytes_read,
            io_seconds: result.io_seconds,
            cpu_seconds: result.cpu_seconds,
            kept_fraction: reply.kept_fraction,
            generation: snapshot.generation,
        };
        let response_len = self.replay_response(t, root, &response);
        if main {
            self.main_frames.push((request_len, response_len));
        }
        Ok(result)
    }

    /// `client.*`, `net.frame.*`, `net.server.*` and the per-request
    /// lifecycle and cost calls, from the traced window's spans.
    pub fn layer_metrics(&mut self, main_root: &str, traced: &Window, out: &mut Metrics) {
        let t = traced.tracer.as_ref().expect("traced window");
        let stats = self.client.stats();
        out.insert("client.retries".into(), stats.retries as f64);
        out.insert("client.reconnects".into(), stats.reconnects as f64);
        for (metric, span) in [
            ("net.frame.encode_request_us", "net.frame.encode_request"),
            ("net.frame.decode_request_us", "net.frame.decode_request"),
            ("net.frame.encode_response_us", "net.frame.encode_response"),
            ("net.frame.decode_response_us", "net.frame.decode_response"),
        ] {
            put_median(out, metric, &t.durations_us(main_root, span), 1.0);
        }
        // Pin, pricing and booking are the same calls for every scan of a
        // workload; pool both classes (on ingest_mix only side scans).
        for (metric, span, factor) in [
            ("storage.engine.snapshot_ns", "storage.engine.snapshot", 1e3),
            ("cost.query_cost_ns", "cost.query_cost", 1e3),
            ("lifecycle.record_scan_us", "lifecycle.record_scan", 1.0),
        ] {
            let mut pooled = t.durations_us(MAIN_SCAN, span);
            pooled.extend(t.durations_us(SIDE_SCAN, span));
            put_median(out, metric, &pooled, factor);
        }
        if !self.main_frames.is_empty() {
            let n = self.main_frames.len() as f64;
            let (req, resp) = self
                .main_frames
                .iter()
                .fold((0, 0), |(a, b), (r, s)| (a + r, b + s));
            out.insert("net.frame.request_bytes".into(), req as f64 / n);
            out.insert("net.frame.response_bytes".into(), resp as f64 / n);
        }
        // What the replay does not cover is the server's own time: socket,
        // thread hop, admission, slow log, pending fold, ledger. Taken on
        // the smaller op class, where it is the larger share: under a
        // 40 ms scan a 70 us remainder is lost in the replay's own noise.
        let smaller = if traced.main.p50_ms() <= traced.side.p50_ms() {
            main_root
        } else {
            SIDE_SCAN
        };
        put_median(
            out,
            "net.server.overhead_us",
            &t.self_times_us(smaller),
            1.0,
        );
        let server = self.handle.stats();
        out.insert("net.server.requests".into(), server.requests as f64);
        out.insert(
            "net.server.shed_overload".into(),
            server.shed_overload as f64,
        );
        out.insert(
            "net.server.shed_deadline".into(),
            server.shed_deadline as f64,
        );
        out.insert("net.server.typed_errors".into(), server.typed_errors as f64);
        // The server resolves its route once at start-up; time the call.
        let handle = &self.handle;
        let per_call = time_per_call(2_000, || {
            handle.with_fleet(|f| f.scan_target(TABLE).is_ok())
        });
        out.insert("lifecycle.scan_target_us".into(), per_call * 1e6);
        // The Table 7 lane: modeled disk seconds over measured wall
        // seconds of the same op.
        out.insert(
            "cost.model_over_wall_main".into(),
            traced.main.model_s_per_op() / (traced.main.p50_ms() / 1e3),
        );
    }

    /// Stop the server and join its threads.
    pub fn shutdown(self) {
        drop(self.client);
        self.handle.shutdown();
    }
}

fn decode_frame(frame: &[u8]) -> bool {
    let mut buffer = FrameBuffer::new();
    buffer.extend(frame);
    matches!(buffer.next_frame(), Ok(Some(_)))
}
