//! The [`TableFleet`]: many live tables, one advisor budget.
//!
//! The paper evaluates its advisors per table, but the benchmarks those
//! advisors target (TPC-H, SSB) are *fleets* of tables competing for one
//! optimization budget. Like slicing a loaf, where total effort drops when
//! strokes are distributed across slices instead of sawing one slice to
//! completion, a fleet should spend its bounded advisor budget on the most
//! drifted table first rather than exhausting it on whichever table
//! arrived first.
//!
//! A `TableFleet` owns one [`TableManager`] per table and routes each
//! incoming query to its table by name ([`TableFleet::execute`]), so every
//! manager keeps its own sliding window and warm evaluator memos. On a
//! fleet-wide cadence it runs an *advise round*: a scheduling pass that
//! spends one shared per-round [`Budget`] across the managers according to
//! the configured [`FleetSchedule`] —
//!
//! * [`FleetSchedule::SharedDriftFirst`] (the headline): tables are
//!   visited most-drifted first, each granted the **whole remaining**
//!   [`BudgetPool`]; the pool is then charged for what the session
//!   actually spent, so early-stopping sessions effectively refund their
//!   remainder to the tables behind them.
//! * [`FleetSchedule::EqualSplit`]: the round budget is divided evenly
//!   up front; unspent slices are *not* refunded (the per-table-fair
//!   baseline).
//! * [`FleetSchedule::RoundRobin`]: one table per round in rotation gets
//!   the whole budget (the drift-blind baseline).
//!
//! Drift is scored per table from the window cost versus the cost the
//! current layout was anchored at (the last completed advisor session over
//! that table), with the window's access-profile drift
//! ([`slicer_model::SlidingWorkload::drift_from`]) as the tie-breaker —
//! a table whose traffic changed shape but not (yet) cost still ranks
//! above one whose window is unchanged.

use crate::manager::{RealizedPayoff, RepartitionDecision, ServeBatchReport, TableManager};
use crate::serve::ScanTarget;
use slicer_core::{Budget, BudgetPool, SessionStats};
use slicer_model::{ModelError, Query};
use slicer_storage::{IngestBatch, IngestStats, ScanResult, StorageError, TableSnapshot};
use std::collections::HashMap;

/// How a fleet spends its per-round advisor budget across its tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FleetSchedule {
    /// Most-drifted table first, each granted the whole remaining shared
    /// pool; sessions are charged for actual spend, so unused budget flows
    /// on to the next table.
    #[default]
    SharedDriftFirst,
    /// The round budget is split evenly across tables with non-empty
    /// windows, drift-blind; unspent slices are not refunded. (A slice of
    /// a tiny budget is floored at one step / one nanosecond, so a very
    /// wide fleet can in aggregate slightly oversubscribe the round — the
    /// fairness baseline's known cost.)
    EqualSplit,
    /// One table per round, in rotation, granted the whole round budget,
    /// drift-blind.
    RoundRobin,
}

/// Tuning knobs of one [`TableFleet`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetConfig {
    /// Run one advise round after every this many routed queries
    /// (fleet-wide, not per table).
    pub advise_every: u64,
    /// The shared advisor budget of one round (see [`FleetSchedule`] for
    /// how it is spent).
    pub round_budget: Budget,
    /// The scheduling policy.
    pub schedule: FleetSchedule,
    /// Drift-first only: a table with an anchor whose [`DriftScore`] is
    /// strictly below this floor on *both* axes is not visited at all —
    /// its window still looks the way it did when the advisor last ruled
    /// on it, so a session there can only burn budget or thrash the
    /// layout. `0.0` (the default) never skips anything (scores are
    /// clamped non-negative), which keeps a one-table fleet behaviorally
    /// identical to a lone [`TableManager`]. The drift-blind baselines
    /// ignore the floor — they have no drift signal to apply it to.
    pub drift_floor: f64,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            advise_every: 16,
            round_budget: Budget::UNLIMITED,
            schedule: FleetSchedule::SharedDriftFirst,
            drift_floor: 0.0,
        }
    }
}

/// Aggregate counters over a fleet's lifetime. Per-table counters live on
/// each manager ([`TableFleet::manager`] → [`TableManager::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FleetStats {
    /// Queries routed and served.
    pub queries: u64,
    /// Advise rounds run.
    pub rounds: u64,
    /// Advisor sessions run across all tables.
    pub sessions: u64,
    /// Sessions not run because the shared pool was exhausted before
    /// their table's turn came (drift-first only).
    pub sessions_skipped: u64,
    /// Advisor steps actually consumed, summed across sessions.
    pub steps_spent: u64,
    /// Wall-clock seconds spent in advisor sessions, summed.
    pub advisor_seconds: f64,
    /// Re-partitionings applied across all tables.
    pub repartitions: u64,
    /// Candidate layouts rejected by the payoff test, across all tables.
    pub rejected_by_payoff: u64,
    /// Sessions whose advisor failed outright.
    pub failed_sessions: u64,
    /// Modeled incremental I/O invested in adopted moves, summed over all
    /// tables — re-recorded at every advise round (the fleet-wide half of
    /// the per-table [`RealizedPayoff`] ledger the ROADMAP's "learned
    /// drift floor" needs; per-table numbers via
    /// [`TableFleet::realized_payoff`]).
    pub payoff_invested_io_seconds: f64,
    /// Modeled I/O the served traffic saved versus each table's forgone
    /// layout, summed over all tables — re-recorded at every advise round.
    pub payoff_saved_io_seconds: f64,
    /// Ingest batches routed through [`TableFleet::ingest`], fleet-wide
    /// (per-table ingest counters live on each manager's
    /// [`crate::manager::ManagerStats`]).
    pub ingest_batches: u64,
}

/// Drift priority of one table: compared lexicographically.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftScore {
    /// Relative cost regret: how much worse (fraction ≥ 0) the current
    /// window performs per unit weight than at the anchor point.
    /// `f64::INFINITY` for a table that was never advised (no anchor);
    /// `f64::NEG_INFINITY` for an empty window (nothing to advise).
    pub cost_regret: f64,
    /// Mean absolute access-profile change since the anchor, in `[0, 1]`
    /// (see [`slicer_model::SlidingWorkload::drift_from`]).
    pub profile_drift: f64,
}

impl DriftScore {
    fn key(&self) -> (f64, f64) {
        (self.cost_regret, self.profile_drift)
    }

    /// True iff `self` outranks `other` (strictly more drifted).
    pub fn outranks(&self, other: &DriftScore) -> bool {
        let (a, b) = (self.key(), other.key());
        a.0 > b.0 || (a.0 == b.0 && a.1 > b.1)
    }
}

struct FleetEntry {
    name: String,
    manager: TableManager,
    /// Window cost per unit weight at the last completed advisor session
    /// over this table (`None` until then).
    anchor_cost_per_weight: Option<f64>,
    /// Window access profile snapshotted at the same point.
    reference_profile: Vec<f64>,
}

impl FleetEntry {
    fn drift(&self) -> DriftScore {
        let weight = self.manager.window_weight();
        if weight <= 0.0 {
            return DriftScore {
                cost_regret: f64::NEG_INFINITY,
                profile_drift: 0.0,
            };
        }
        let profile_drift = self.manager.window_drift_from(&self.reference_profile);
        let cost_regret = match self.anchor_cost_per_weight {
            None => f64::INFINITY,
            Some(anchor) if anchor > 0.0 => {
                (self.manager.window_cost() / weight / anchor - 1.0).max(0.0)
            }
            Some(_) => 0.0,
        };
        DriftScore {
            cost_regret,
            profile_drift,
        }
    }

    /// Re-anchor after a completed session: the advisor has just had its
    /// say over this window, so drift restarts from here.
    fn re_anchor(&mut self) {
        let weight = self.manager.window_weight();
        self.anchor_cost_per_weight = (weight > 0.0).then(|| self.manager.window_cost() / weight);
        self.reference_profile = self.manager.window_profile();
    }
}

/// What one routed query triggered fleet-wide.
#[derive(Debug)]
pub enum FleetOutcome {
    /// The advise cadence has not come up yet.
    NotDue,
    /// An advise round ran: per visited table (in visit order), the
    /// decision its session produced.
    Round(Vec<(String, RepartitionDecision)>),
}

/// A multi-table serving front end: one [`TableManager`] per table, a
/// router keyed by table name, and a shared advisor budget spent
/// most-drifted-table-first (see the module docs).
pub struct TableFleet {
    cfg: FleetConfig,
    entries: Vec<FleetEntry>,
    by_name: HashMap<String, usize>,
    rr_cursor: usize,
    stats: FleetStats,
}

impl TableFleet {
    /// An empty fleet; add tables with [`TableFleet::add_table`].
    ///
    /// # Panics
    /// If `cfg.advise_every` is zero (no round would ever run).
    pub fn new(cfg: FleetConfig) -> TableFleet {
        assert!(cfg.advise_every > 0, "advise cadence must be positive");
        TableFleet {
            cfg,
            entries: Vec::new(),
            by_name: HashMap::new(),
            rr_cursor: 0,
            stats: FleetStats::default(),
        }
    }

    /// Register `manager` under the routing key `name`.
    ///
    /// # Panics
    /// If `name` is already registered (fleet composition is programmer
    /// configuration, not runtime input).
    pub fn add_table(&mut self, name: impl Into<String>, manager: TableManager) {
        let name = name.into();
        assert!(
            !self.by_name.contains_key(&name),
            "fleet already serves a table named `{name}`"
        );
        self.by_name.insert(name.clone(), self.entries.len());
        self.entries.push(FleetEntry {
            name,
            manager,
            anchor_cost_per_weight: None,
            reference_profile: Vec::new(),
        });
    }

    /// Number of tables served.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True iff no table is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Routing keys, in registration order.
    pub fn table_names(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|e| e.name.as_str())
    }

    /// The manager serving `table`, if registered.
    pub fn manager(&self, table: &str) -> Option<&TableManager> {
        self.by_name.get(table).map(|&i| &self.entries[i].manager)
    }

    /// Current drift score of `table`, if registered.
    pub fn drift_of(&self, table: &str) -> Option<DriftScore> {
        self.by_name.get(table).map(|&i| self.entries[i].drift())
    }

    /// Fleet-wide counters.
    pub fn stats(&self) -> &FleetStats {
        &self.stats
    }

    /// The fleet's configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.cfg
    }

    /// Route one query to `table`, serve it there, and — every
    /// `advise_every` routed queries — run one advise round over the whole
    /// fleet.
    ///
    /// `Err` means the query was not served: no table is registered under
    /// `table` ([`ModelError::UnknownTable`]) or the query does not fit
    /// that table's schema. Un-served queries advance neither the window
    /// nor the cadence.
    pub fn execute(
        &mut self,
        table: &str,
        query: Query,
    ) -> Result<(ScanResult, FleetOutcome), ModelError> {
        let idx = *self
            .by_name
            .get(table)
            .ok_or_else(|| ModelError::UnknownTable {
                table: table.to_string(),
            })?;
        let result = self.entries[idx].manager.serve(query)?;
        self.stats.queries += 1;
        let outcome = if self.stats.queries.is_multiple_of(self.cfg.advise_every) {
            FleetOutcome::Round(self.advise_round())
        } else {
            FleetOutcome::NotDue
        };
        Ok((result, outcome))
    }

    /// Everything an external serve front needs to scan `table` without
    /// holding a reference to the fleet: the shared table handle (scans
    /// pin immutable snapshots off it, so a concurrent repartition never
    /// stalls them) and the simulated disk the scan is priced on. A
    /// network tier resolves its routes once at startup — the handle
    /// stays valid across every later layout move — then folds each
    /// served scan back via [`TableFleet::record_scan`].
    pub fn scan_target(&self, table: &str) -> Result<ScanTarget, ModelError> {
        let idx = *self
            .by_name
            .get(table)
            .ok_or_else(|| ModelError::UnknownTable {
                table: table.to_string(),
            })?;
        Ok(self.entries[idx].manager.target())
    }

    /// Book one externally-executed scan into the fleet: per-table stats,
    /// realized-payoff accrual, the sliding window that feeds advising,
    /// and the fleet-wide query counter. The scan already happened (on a
    /// serving thread, against a [`TableFleet::scan_target`] snapshot);
    /// `served` is the snapshot it actually pinned. Unlike
    /// [`TableFleet::execute`], recording does **not** consult the advise
    /// cadence — an external front schedules [`TableFleet::advise_round`]
    /// explicitly.
    pub fn record_scan(
        &mut self,
        table: &str,
        query: Query,
        result: &ScanResult,
        served: &TableSnapshot,
    ) -> Result<(), ModelError> {
        let idx = *self
            .by_name
            .get(table)
            .ok_or_else(|| ModelError::UnknownTable {
                table: table.to_string(),
            })?;
        self.entries[idx]
            .manager
            .record_served(query, result, served);
        self.stats.queries += 1;
        Ok(())
    }

    /// Route one ingest batch to `table` ([`TableManager::ingest`]): the
    /// write lands in that table's WAL'd delta, and the grown delta lifts
    /// the table's [`TableManager::window_cost`] — so under drift-first
    /// scheduling, sustained ingest pulls the shared advisor budget toward
    /// the tables accumulating the most un-folded write debt.
    ///
    /// `Err` is [`StorageError::UnknownTable`] when no table is registered
    /// under `table`; other errors are the manager's validation failures.
    /// Ingest advances neither the window nor the advise cadence — only
    /// served queries do.
    pub fn ingest(
        &mut self,
        table: &str,
        batch: &IngestBatch,
    ) -> Result<IngestStats, StorageError> {
        let idx = *self
            .by_name
            .get(table)
            .ok_or_else(|| StorageError::UnknownTable(table.to_string()))?;
        let stats = self.entries[idx].manager.ingest(batch)?;
        self.stats.ingest_batches += 1;
        Ok(stats)
    }

    /// Run one advise round now, regardless of cadence: spend the round
    /// budget across the tables per the configured schedule. Returns the
    /// per-table decisions in visit order (tables with empty windows are
    /// not visited).
    pub fn advise_round(&mut self) -> Vec<(String, RepartitionDecision)> {
        self.stats.rounds += 1;
        let out = match self.cfg.schedule {
            FleetSchedule::SharedDriftFirst => self.round_drift_first(),
            FleetSchedule::EqualSplit => self.round_equal_split(),
            FleetSchedule::RoundRobin => self.round_round_robin(),
        };
        // Re-record the fleet-wide realized-payoff ledger: what the round
        // just invested and what the traffic served so far has paid back.
        let (invested, saved) = self
            .entries
            .iter()
            .map(|e| e.manager.realized_payoff())
            .fold((0.0, 0.0), |(i, s), p| {
                (i + p.invested_io_seconds, s + p.saved_io_seconds)
            });
        self.stats.payoff_invested_io_seconds = invested;
        self.stats.payoff_saved_io_seconds = saved;
        out
    }

    /// Realized payoff ledger of `table`, if registered (see
    /// [`RealizedPayoff`]).
    pub fn realized_payoff(&self, table: &str) -> Option<RealizedPayoff> {
        self.by_name
            .get(table)
            .map(|&i| self.entries[i].manager.realized_payoff())
    }

    /// Drain a routed query batch across `threads` scan workers, then run
    /// `overlap` on the calling thread while the workers are still
    /// scanning — the fleet's serve front. `overlap` gets `&mut self`, so
    /// it can run an [`TableFleet::advise_round`] (with its re-partitions)
    /// *during* the drain; the zero-stall snapshot swap means no worker
    /// ever blocks on a move. Results are folded into the per-table
    /// managers in batch order afterwards, so subsequent advising is
    /// deterministic for a given batch.
    ///
    /// One caveat the single-table report does not have: the generation
    /// span (`min_generation`..`max_generation`) mixes *per-table*
    /// counters, so across tables at different steady-state generations a
    /// spread does **not** imply a re-partition happened mid-drain; use
    /// [`TableFleet::manager`]-level drains when that signal matters.
    ///
    /// Unlike [`TableFleet::execute`], batch serving does **not** consult
    /// the fleet's `advise_every` cadence — schedule rounds explicitly
    /// (run [`TableFleet::advise_round`] in `overlap` or between batches).
    ///
    /// `Err` means some event routes to an unknown table or does not fit
    /// its schema; nothing is served.
    pub fn serve_batch_with<R>(
        &mut self,
        events: &[(String, Query)],
        threads: usize,
        overlap: impl FnOnce(&mut TableFleet) -> R,
    ) -> Result<(ServeBatchReport, R), ModelError> {
        let mut routed = Vec::with_capacity(events.len());
        for (table, query) in events {
            let idx = *self
                .by_name
                .get(table)
                .ok_or_else(|| ModelError::UnknownTable {
                    table: table.clone(),
                })?;
            self.entries[idx].manager.target().validate(query.clone())?;
            routed.push(idx);
        }
        let targets: Vec<ScanTarget> = self.entries.iter().map(|e| e.manager.target()).collect();
        let queries: Vec<Query> = events.iter().map(|(_, q)| q.clone()).collect();
        let (drained, wall_seconds, overlap_out) =
            crate::serve::drain_batch(&targets, &routed, &queries, threads, || overlap(self));
        let report = crate::serve::fold_report(&drained, threads, wall_seconds, 0);
        for (idx, ev) in routed.into_iter().zip(drained) {
            self.entries[idx]
                .manager
                .record_served(ev.query, &ev.result, &ev.snapshot);
            self.stats.queries += 1;
        }
        Ok((report, overlap_out))
    }

    /// [`TableFleet::serve_batch_with`] with no overlapped work: a plain
    /// multi-threaded routed drain.
    pub fn serve_batch(
        &mut self,
        events: &[(String, Query)],
        threads: usize,
    ) -> Result<ServeBatchReport, ModelError> {
        self.serve_batch_with(events, threads, |_| ())
            .map(|(report, ())| report)
    }

    /// Tables with something in their window, most drifted first (ties
    /// keep registration order: sort is stable), each with the score it
    /// was ranked by — computed once per round, since scoring runs the
    /// cost model over every table's window.
    fn drift_order(&self) -> Vec<(usize, DriftScore)> {
        let mut order: Vec<(usize, DriftScore)> = self
            .entries
            .iter()
            .enumerate()
            .map(|(i, e)| (i, e.drift()))
            .filter(|(_, s)| s.cost_regret > f64::NEG_INFINITY)
            .collect();
        order.sort_by(|(_, a), (_, b)| {
            if a.outranks(b) {
                std::cmp::Ordering::Less
            } else if b.outranks(a) {
                std::cmp::Ordering::Greater
            } else {
                std::cmp::Ordering::Equal
            }
        });
        order
    }

    fn round_drift_first(&mut self) -> Vec<(String, RepartitionDecision)> {
        let floor = self.cfg.drift_floor;
        let order: Vec<usize> = self
            .drift_order()
            .into_iter()
            .filter(|&(i, score)| {
                self.entries[i].anchor_cost_per_weight.is_none()
                    || score.cost_regret >= floor
                    || score.profile_drift >= floor
            })
            .map(|(i, _)| i)
            .collect();
        let mut pool = BudgetPool::new(self.cfg.round_budget);
        let mut out = Vec::with_capacity(order.len());
        for idx in order {
            if pool.is_exhausted() {
                self.stats.sessions_skipped += 1;
                continue;
            }
            let (decision, spent) = self.advise_entry(idx, pool.grant());
            pool.charge(&spent);
            out.push((self.entries[idx].name.clone(), decision));
        }
        out
    }

    fn round_equal_split(&mut self) -> Vec<(String, RepartitionDecision)> {
        let order: Vec<usize> = (0..self.entries.len())
            .filter(|&i| self.entries[i].manager.window_weight() > 0.0)
            .collect();
        if order.is_empty() {
            return Vec::new();
        }
        let slice = self.cfg.round_budget.split(order.len() as u64);
        let mut out = Vec::with_capacity(order.len());
        for idx in order {
            let (decision, _) = self.advise_entry(idx, slice);
            out.push((self.entries[idx].name.clone(), decision));
        }
        out
    }

    fn round_round_robin(&mut self) -> Vec<(String, RepartitionDecision)> {
        let n = self.entries.len();
        for _ in 0..n {
            let idx = self.rr_cursor % n;
            self.rr_cursor += 1;
            if self.entries[idx].manager.window_weight() > 0.0 {
                let (decision, _) = self.advise_entry(idx, self.cfg.round_budget);
                return vec![(self.entries[idx].name.clone(), decision)];
            }
        }
        Vec::new()
    }

    /// Run one session over entry `idx` with `budget`; book the spend and
    /// Run one session over entry `idx` with `budget`; book the spend and
    /// outcome into the fleet counters, and re-anchor the entry's drift —
    /// but only when the advisor really had its say. A session that was
    /// budget-truncated without adopting anything (the 1-step leftover of
    /// a nearly-drained pool) must *not* reset the drift signal: doing so
    /// would hide the table below the drift floor and starve it of the
    /// very budget it still needs. An `Applied` always re-anchors — the
    /// layout changed, so the old anchor prices a layout that no longer
    /// exists (and re-running the same truncated search over the same
    /// window would just reproduce the adopted layout as a `NoChange`).
    fn advise_entry(&mut self, idx: usize, budget: Budget) -> (RepartitionDecision, SessionStats) {
        let entry = &mut self.entries[idx];
        let (decision, spent) = entry.manager.advise_with(budget);
        self.stats.sessions += 1;
        self.stats.steps_spent += spent.steps;
        self.stats.advisor_seconds += spent.elapsed.as_secs_f64();
        match &decision {
            RepartitionDecision::Applied(_) => {
                self.stats.repartitions += 1;
                entry.re_anchor();
            }
            RepartitionDecision::Rejected { .. } => {
                self.stats.rejected_by_payoff += 1;
                if !spent.truncated {
                    entry.re_anchor();
                }
            }
            RepartitionDecision::NoChange => {
                if !spent.truncated {
                    entry.re_anchor();
                }
            }
            RepartitionDecision::Failed { .. } => self.stats.failed_sessions += 1,
            RepartitionDecision::NotDue => unreachable!("sessions always decide"),
        }
        (decision, spent)
    }
}
