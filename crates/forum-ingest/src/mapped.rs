//! The mapped serving application: read-only queries straight off a v2
//! store through [`intentmatch::StoreView`], no heap hydration.
//!
//! Where [`crate::shard_serve::ShardServeApp`] owns a fully decoded live
//! engine (WAL, delta epochs, compaction), [`MappedServeApp`] owns only an
//! `Arc<StoreView>`: startup is O(touched pages) — header + directory +
//! cluster metadata — and each query faults in exactly the sections it
//! consults. Rankings are bit-identical to the heap engine (the view's
//! query path shares every scoring kernel; see `intentmatch::view`).
//!
//! Routes:
//!
//! * `POST /query` (also `GET`) — `?doc=N&k=K` or a JSON body
//!   `{"doc": N, "k": K}`, parsed and rendered by the live app's own
//!   [`crate::serve::QueryParams`]: the same `k` cap and `threshold`
//!   filter, and a `results` array byte-identical to the live app's.
//!   EXPLAIN requires the hydrated engine and `board` a boards file, so
//!   both return `400` here.
//! * `POST /shutdown` — stops the accept loop cleanly.
//! * everything else — the standard telemetry endpoints (`/metrics`,
//!   `/healthz`, `/readyz`, `/snapshot`, `/events`).
//!
//! The mapped reader serves a *snapshot*, not a live store: it never
//! opens the WAL, so `intentmatch serve --mapped` refuses to start while
//! WAL records are pending (see [`pending_wal_records`]) — serving a
//! snapshot that pending writes have already superseded would silently
//! drop them from every ranking.

use crate::ingest::snapshot_tag;
use crate::serve::{shutdown, QueryParams, DEFAULT_MAX_K};
use crate::wal;
use crate::wal_path_for;
use forum_obs::json::Json;
use forum_obs::serve::{HealthReport, HealthSource, Request, Response, Stopper, TelemetryRoutes};
use forum_obs::Registry;
use intentmatch::pipeline::QueryScratch;
use intentmatch::StoreView;
use std::cell::RefCell;
use std::path::Path;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// How many WAL records are pending on top of the snapshot at
/// `store_path` — records whose tag does not match the snapshot are
/// stale leftovers `Wal::open` would discard, so they do not count.
/// A missing WAL is zero pending.
pub fn pending_wal_records(store_path: &Path) -> Result<usize, crate::IngestError> {
    let tag = snapshot_tag(store_path)?;
    let inspection = wal::inspect(&wal_path_for(store_path), tag)
        .map_err(|e| crate::IngestError::Wal(wal::WalError::Io(e)))?;
    Ok(if inspection.exists && inspection.tag_matches {
        inspection.records.len()
    } else {
        0
    })
}

/// Readiness from the mapped view, answered on `/readyz`. The view is
/// open by construction (header and directory verified), so readiness is
/// unconditional; the detail reports what is resident.
pub struct MappedHealth {
    view: Arc<StoreView>,
}

impl HealthSource for MappedHealth {
    fn health(&self) -> HealthReport {
        HealthReport {
            ready: true,
            detail: Json::obj()
                .with("store_loaded", true)
                .with("mapped", true)
                .with("backing", self.view.backing_name())
                .with("num_docs", self.view.num_docs() as u64)
                .with("num_clusters", self.view.num_clusters() as u64)
                .with(
                    "resident_clusters",
                    self.view.num_resident_clusters() as u64,
                )
                .with("store_bytes", self.view.file_len()),
        }
    }
}

/// The mapped serving application: `/query` over an `Arc<StoreView>`,
/// layered on the standard telemetry endpoints.
pub struct MappedServeApp {
    view: Arc<StoreView>,
    routes: TelemetryRoutes,
    stopper: Mutex<Option<Stopper>>,
    max_k: usize,
}

impl MappedServeApp {
    /// Builds the app over an open view with the default `k` cap
    /// ([`DEFAULT_MAX_K`]).
    pub fn new(view: Arc<StoreView>) -> Arc<MappedServeApp> {
        MappedServeApp::with_max_k(view, DEFAULT_MAX_K)
    }

    /// Builds the app over an open view, clamping each request's `k` to
    /// `[1, max_k]`. Registers the request-level metrics up front so the
    /// first `/metrics` scrape already exposes the `serve_*` families.
    pub fn with_max_k(view: Arc<StoreView>, max_k: usize) -> Arc<MappedServeApp> {
        let registry = Registry::global();
        registry.counter("serve/http_requests");
        registry.histogram("serve/http_request_ns");
        registry.histogram("serve/online_query_ns");
        let health = Arc::new(MappedHealth { view: view.clone() });
        Arc::new(MappedServeApp {
            view,
            routes: TelemetryRoutes::global(health),
            stopper: Mutex::new(None),
            max_k,
        })
    }

    /// Installs the server's stopper so `POST /shutdown` can stop the
    /// accept loop.
    pub fn set_stopper(&self, stopper: Stopper) {
        *self.stopper.lock().unwrap_or_else(PoisonError::into_inner) = Some(stopper);
    }

    /// Dispatches one request; records `serve/http_requests` and
    /// `serve/http_request_ns` around every dispatch.
    pub fn handle(&self, req: &Request) -> Response {
        let obs = Registry::global();
        let started = Instant::now();
        let response = self.dispatch(req);
        obs.incr("serve/http_requests", 1);
        obs.record_duration("serve/http_request_ns", started.elapsed());
        response
    }

    fn dispatch(&self, req: &Request) -> Response {
        match req.path.as_str() {
            "/query" => {
                if req.method != "POST" && req.method != "GET" {
                    return Response::text(405, "method not allowed\n");
                }
                self.query(req)
            }
            "/shutdown" => {
                if req.method != "POST" {
                    return Response::text(405, "method not allowed\n");
                }
                shutdown(&self.stopper)
            }
            _ => self
                .routes
                .handle(req)
                .unwrap_or_else(|| Response::not_found(&req.path)),
        }
    }

    fn query(&self, req: &Request) -> Response {
        let q = match QueryParams::parse(req, self.max_k, self.view.num_docs()) {
            Ok(q) => q,
            Err(resp) => return resp,
        };
        if q.explain {
            return Response::bad_request(
                "explain requires the hydrated engine: run serve without --mapped",
            );
        }
        if q.board.is_some() {
            return Response::bad_request(
                "board filtering requires a boards file: run serve --boards without --mapped",
            );
        }

        // One scratch per worker thread, reused across requests — the
        // pool's workers are long-lived, so the per-query allocation cost
        // amortises to zero exactly like the offline engine's per-worker
        // scratch.
        thread_local! {
            static SCRATCH: RefCell<QueryScratch> = RefCell::new(QueryScratch::new());
        }
        let started = Instant::now();
        let ranking = SCRATCH.with(|scratch| {
            self.view
                .top_k(q.doc as usize, q.k, &mut scratch.borrow_mut())
        });
        let ranking = match ranking {
            Ok(r) => r,
            Err(e) => return Response::text(500, format!("query failed: {e}\n")),
        };
        Registry::global().record_duration("serve/online_query_ns", started.elapsed());

        Response::json(
            200,
            &Json::obj()
                .with("query", q.doc)
                .with("k", q.k as u64)
                .with("backing", self.view.backing_name())
                .with("results", q.results(&ranking)),
        )
    }
}
