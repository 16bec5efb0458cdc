//! The operator executor: interprets a [`QueryPlan`] against the physical
//! layer (`PhysAccess`/`NokMatcher`/`IntervalSet`).
//!
//! Execution of one plan:
//!
//! 1. [`PlanStep::EvalFragment`] steps run in plan order (children before
//!    parents; cheapest ready fragment first when the plan is
//!    cost-ordered). Each locates starting points per the planner's
//!    [`SeedChoice`], runs physical NoK matching from every start, and —
//!    through the matcher hook — requires every cut-edge source to
//!    structurally contain (or precede) a match of the already-evaluated
//!    child fragment (the structural *semijoin* folded into navigation).
//!    A fragment with **zero** matches proves the whole query empty (tree
//!    patterns are conjunctive and every fragment is reachable from the
//!    root fragment through cut edges), so execution stops early — the
//!    payoff of cost-ordering.
//! 2. [`PlanStep::FilterChain`] steps walk top-down along the fragment
//!    path to the returning fragment, keeping records whose fragment-root
//!    match lies under (or after) a surviving hot match of the parent.
//! 3. [`PlanStep::Collect`] emits the surviving returning-fragment
//!    records' hot matches: deduplicated, in document order.

use std::collections::HashMap;
use std::time::Instant;

use nok_pager::Storage;

use crate::build::XmlDb;
use crate::cursor::DocScan;
use crate::dewey::Dewey;
use crate::engine::{QueryMatch, QueryScratch, QueryStats};
use crate::error::CoreResult;
use crate::join::IntervalSet;
use crate::nok::{NokMatcher, TreeAccess};
use crate::pattern::NameTest;
use crate::pattern_tree::{CutKind, PNodeId, Partition, PatternTree, DOC_NODE};
use crate::physical::{IdRecord, PhysAccess, PhysNode, TagPosting};
use crate::plan::{
    Explain, ExplainRow, FragmentPlan, PlanStep, PlannedQuery, QueryPlan, SeedChoice, StrategyUsed,
};
use crate::planner::spine_above;
use crate::values::hash_key;
use crate::QueryOptions;

/// One successful start: the fragment-root match and the collected hot-node
/// matches beneath it.
#[derive(Debug, Default)]
pub(crate) struct Rec {
    root_start: u64,
    hot: Vec<(PhysNode, (u64, u64))>,
}

/// One fragment's evaluation result.
#[derive(Debug, Default)]
pub(crate) struct FragEval {
    records: Vec<Rec>,
    root_intervals: IntervalSet,
    evaluated: bool,
}

/// Pooled per-fragment evaluation buffers, reused across queries through
/// one [`QueryScratch`] so the serve worker hot path reallocates neither
/// the record vectors nor the per-record hot-match vectors.
#[derive(Debug, Default)]
pub(crate) struct EvalPool {
    evals: Vec<FragEval>,
    spare_recs: Vec<Rec>,
}

impl EvalPool {
    /// Prepare for a query of `nfrags` fragments: recycle every record
    /// buffer from the previous query into the spare list.
    fn reset(&mut self, nfrags: usize) {
        for ev in &mut self.evals {
            for mut rec in ev.records.drain(..) {
                rec.hot.clear();
                self.spare_recs.push(rec);
            }
            ev.root_intervals = IntervalSet::default();
            ev.evaluated = false;
        }
        if self.evals.len() < nfrags {
            self.evals.resize_with(nfrags, FragEval::default);
        }
    }
}

impl<S: Storage> XmlDb<S> {
    /// Execute a planned query into caller-provided buffers. `out` is
    /// cleared first; matches land there in document order. This is the
    /// allocation-lean path the serve workers (and the plan cache) use.
    pub fn execute_plan(
        &self,
        planned: &PlannedQuery,
        scratch: &mut QueryScratch,
        out: &mut Vec<QueryMatch>,
    ) -> CoreResult<()> {
        self.execute_pattern_plan(&planned.tree, &planned.plan, scratch, out)
    }

    /// Execute a plan over a borrowed pattern tree (the partition is
    /// recomputed — it is deterministic and borrows the tree).
    pub(crate) fn execute_pattern_plan(
        &self,
        tree: &PatternTree,
        plan: &QueryPlan,
        scratch: &mut QueryScratch,
        out: &mut Vec<QueryMatch>,
    ) -> CoreResult<()> {
        out.clear();
        let part = tree.partition();
        let access = PhysAccess::new(&self.store, &self.dict, &self.bt_id, &self.data);
        let nfrags = part.fragments.len();
        let QueryScratch { stats, pool } = scratch;
        stats.reset(nfrags);
        pool.reset(nfrags);
        if plan.proven_empty {
            // The synopsis proved some root chain unsupported: every
            // fragment is skipped, no starting point is located, and not
            // one page is touched.
            for fp in &plan.fragments {
                stats.strategies[fp.frag] = StrategyUsed::Skipped;
            }
            stats.proven_empty = true;
            return Ok(());
        }
        let pool_stats = self.store.pool().stats();
        let entries_before = pool_stats.entries_examined();
        let dir_before = pool_stats.dir_entries_examined();
        let finish = |stats: &mut QueryStats| {
            let pool_stats = self.store.pool().stats();
            stats.entries_examined = pool_stats.entries_examined().saturating_sub(entries_before);
            stats.dir_entries_examined =
                pool_stats.dir_entries_examined().saturating_sub(dir_before);
        };

        // Records of the chain fragment filtered so far (top-down pass).
        let mut surviving: Option<Vec<usize>> = None;
        for step in &plan.steps {
            match step {
                PlanStep::EvalFragment { frag } => {
                    let fp = &plan.fragments[*frag];
                    let empty = self.exec_fragment(
                        &part,
                        fp,
                        &access,
                        &mut pool.evals,
                        &mut pool.spare_recs,
                        stats,
                    )?;
                    if empty {
                        // Conjunctive pattern + connected fragment forest:
                        // an empty fragment empties the whole query.
                        for (f, fp2) in plan.fragments.iter().enumerate() {
                            if !pool.evals[f].evaluated {
                                stats.strategies[fp2.frag] = StrategyUsed::Skipped;
                            }
                        }
                        out.clear();
                        finish(stats);
                        return Ok(());
                    }
                }
                PlanStep::FilterChain {
                    parent,
                    child,
                    kind,
                } => {
                    let surv = match &surviving {
                        Some(s) => s.clone(),
                        None => (0..pool.evals[*parent].records.len()).collect(),
                    };
                    let parent_eval = &pool.evals[*parent];
                    let allowed = IntervalSet::new(
                        surv.iter()
                            .flat_map(|&ri| parent_eval.records[ri].hot.iter().map(|(_, iv)| *iv))
                            .collect(),
                    );
                    let child_eval = &pool.evals[*child];
                    let next: Vec<usize> = (0..child_eval.records.len())
                        .filter(|&ri| {
                            let start = child_eval.records[ri].root_start;
                            match kind {
                                CutKind::Descendant => allowed.any_containing(start),
                                CutKind::Following => allowed.any_ending_before(start),
                            }
                        })
                        .collect();
                    stats.chain_survivors.push(next.len() as u64);
                    surviving = Some(next);
                }
                PlanStep::Collect { frag } => {
                    let ret_eval = &pool.evals[*frag];
                    let surv = match surviving.take() {
                        Some(s) => s,
                        None => (0..ret_eval.records.len()).collect(),
                    };
                    out.extend(surv.iter().flat_map(|&ri| {
                        ret_eval.records[ri].hot.iter().map(|(n, _)| QueryMatch {
                            addr: n.addr,
                            dewey: n.dewey.clone(),
                        })
                    }));
                    out.sort_by(|a, b| a.dewey.cmp(&b.dewey));
                    out.dedup_by(|a, b| a.addr == b.addr);
                }
            }
        }
        finish(stats);
        Ok(())
    }

    /// Evaluate one fragment per its plan: seed, verify, match. Returns
    /// whether the fragment produced **no** records (the early-exit
    /// signal).
    #[allow(clippy::too_many_arguments)]
    fn exec_fragment(
        &self,
        part: &Partition<'_>,
        fp: &FragmentPlan,
        access: &PhysAccess<'_, S>,
        evals: &mut [FragEval],
        spare_recs: &mut Vec<Rec>,
        stats: &mut QueryStats,
    ) -> CoreResult<bool> {
        let f = fp.frag;
        let (mut starts, strategy) = self.seed_starts(part, fp, access)?;
        stats.strategies[f] = strategy;
        if fp.verify_spine {
            // Fixed-depth pivot: enforce level and the spine above it.
            let spine = spine_above(part, fp.pivot);
            let pivot_depth = spine.len() as u32 + 1;
            let mut verified = Vec::with_capacity(starts.len());
            for node in starts.drain(..) {
                if node.dewey.level() == pivot_depth
                    && self.ancestor_chain_ok(access, &node.dewey, &spine)?
                {
                    verified.push(node);
                }
            }
            starts = verified;
        }
        let matcher = if matches!(fp.seed, SeedChoice::DocNavigate) || fp.pivot == fp.root {
            NokMatcher::new(part, f)
        } else {
            NokMatcher::with_root(part, f, fp.pivot)
        };

        // Cut conditions checked during matching: src pattern node →
        // (kind, child fragment's root intervals). Child fragments always
        // carry a larger index (partition numbering increases downward),
        // so splitting at `f + 1` separates the fragment being written
        // from the already-evaluated children the hook reads.
        let (head, tail) = evals.split_at_mut(f + 1);
        let target = &mut head[f];
        let mut cut_map: HashMap<PNodeId, Vec<(CutKind, usize)>> = HashMap::new();
        for ce in part.cut_edges_from(f) {
            cut_map
                .entry(ce.src)
                .or_default()
                .push((ce.kind, ce.child_frag));
        }
        let mut hook = |p: PNodeId, n: &PhysNode| -> CoreResult<bool> {
            let Some(conds) = cut_map.get(&p) else {
                return Ok(true);
            };
            let (s, e) = access.interval(n)?;
            for (kind, g) in conds {
                let child = &tail[*g - f - 1];
                debug_assert!(child.evaluated, "child fragment evaluated before parent");
                let ok = match kind {
                    CutKind::Descendant => child.root_intervals.any_within(s, e),
                    CutKind::Following => child.root_intervals.any_starting_after(e),
                };
                if !ok {
                    return Ok(false);
                }
            }
            Ok(true)
        };
        let mut root_ints = Vec::new();
        for start in starts {
            stats.starting_points[f] += 1;
            if let Some(collected) = matcher.match_at(access, &start, &mut hook)? {
                stats.fragment_matches[f] += 1;
                let root_iv = access.interval(&start)?;
                let mut rec = spare_recs.pop().unwrap_or_default();
                rec.root_start = root_iv.0;
                rec.hot.reserve(collected.len());
                for (_, n) in collected {
                    let iv = access.interval(&n)?;
                    rec.hot.push((n, iv));
                }
                target.records.push(rec);
                root_ints.push(root_iv);
            }
        }
        target.root_intervals = IntervalSet::new(root_ints);
        target.evaluated = true;
        Ok(target.records.is_empty())
    }

    /// Materialize a fragment's starting points from its planned seed.
    fn seed_starts(
        &self,
        part: &Partition<'_>,
        fp: &FragmentPlan,
        access: &PhysAccess<'_, S>,
    ) -> CoreResult<(Vec<PhysNode>, StrategyUsed)> {
        match &fp.seed {
            SeedChoice::DocNavigate => {
                let strategy = if fp.pivot == DOC_NODE {
                    StrategyUsed::Doc
                } else {
                    // Low selectivity everywhere: one navigational pass
                    // from the root beats scan + ancestor verification.
                    StrategyUsed::DocScan
                };
                Ok((vec![access.doc_node()], strategy))
            }
            SeedChoice::ValueIndex { literal, lift } => {
                let starts = self.value_seed(literal, *lift, access)?;
                Ok((starts, StrategyUsed::ValueIndex))
            }
            SeedChoice::TagIndex { name, lift } => {
                let starts = self.tag_seed(name, *lift)?;
                Ok((starts, StrategyUsed::TagIndex))
            }
            SeedChoice::Scan => {
                let root_test = &part.tree.nodes[fp.pivot].test;
                let mut starts = Vec::new();
                for item in DocScan::new(&self.store) {
                    let item = item?;
                    let node = PhysNode {
                        addr: item.addr,
                        dewey: item.dewey,
                    };
                    if access.matches_test(&node, root_test)? {
                        starts.push(node);
                    }
                }
                Ok((starts, StrategyUsed::Scan))
            }
        }
    }

    /// Value-index seed: look up the literal's postings, verify the actual
    /// text (hash-collision safety), and lift each hit to the ancestor at
    /// the pivot's depth.
    fn value_seed(
        &self,
        literal: &str,
        lift: u32,
        access: &PhysAccess<'_, S>,
    ) -> CoreResult<Vec<PhysNode>> {
        let postings = self.bt_val.get_all(&hash_key(literal))?;
        let mut starts = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for p in postings {
            let Some(dewey) = Dewey::from_key(&p) else {
                continue;
            };
            if access.value_of_dewey(&dewey)?.as_deref() != Some(literal) {
                continue;
            }
            let level = dewey.level();
            if level <= lift {
                continue; // too shallow to have the required ancestor
            }
            let Some(anc) = dewey.ancestor_at_level(level - lift) else {
                continue;
            };
            if !seen.insert(anc.to_key()) {
                continue;
            }
            let Some(rec) = self.bt_id.get_first(&anc.to_key())? else {
                continue;
            };
            let rec = IdRecord::from_bytes(&rec)?;
            starts.push(PhysNode {
                addr: rec.addr,
                dewey: anc,
            });
        }
        // Starting points must be tried in document order so results come
        // out ordered fragment-locally.
        starts.sort_by(|a, b| a.dewey.cmp(&b.dewey));
        Ok(starts)
    }

    /// Tag-index seed: the tag's postings, lifted `lift` levels.
    fn tag_seed(&self, name: &str, lift: u32) -> CoreResult<Vec<PhysNode>> {
        let Some(code) = self.dict.lookup(name) else {
            return Ok(Vec::new());
        };
        let mut postings = Vec::new();
        for posting in self.tag_postings(code)? {
            let p = TagPosting::from_bytes(&posting)?;
            postings.push(PhysNode {
                addr: p.addr,
                dewey: p.dewey,
            });
        }
        if lift == 0 {
            return Ok(postings);
        }
        let mut out = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for node in postings {
            let level = node.dewey.level();
            if level <= lift {
                continue;
            }
            let Some(anc) = node.dewey.ancestor_at_level(level - lift) else {
                continue;
            };
            if !seen.insert(anc.to_key()) {
                continue;
            }
            let Some(rec) = self.bt_id.get_first(&anc.to_key())? else {
                continue;
            };
            let rec = IdRecord::from_bytes(&rec)?;
            out.push(PhysNode {
                addr: rec.addr,
                dewey: anc,
            });
        }
        out.sort_by(|a, b| a.dewey.cmp(&b.dewey));
        Ok(out)
    }

    /// Verify that the ancestors of `dewey` (levels 1..) match the spine
    /// tests, via Dewey-index lookups.
    fn ancestor_chain_ok(
        &self,
        access: &PhysAccess<'_, S>,
        dewey: &Dewey,
        spine: &[NameTest],
    ) -> CoreResult<bool> {
        for (i, test) in spine.iter().enumerate() {
            let level = i as u32 + 1;
            let Some(anc) = dewey.ancestor_at_level(level) else {
                return Ok(false);
            };
            let Some(rec) = self.bt_id.get_first(&anc.to_key())? else {
                return Ok(false);
            };
            let rec = IdRecord::from_bytes(&rec)?;
            let node = PhysNode {
                addr: rec.addr,
                dewey: anc,
            };
            if !access.matches_test(&node, test)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Plan, execute, and render the plan with estimated vs. actual
    /// cardinalities per operator. A leading `plan` row gives the planning
    /// wall time and the size of the path summary it consulted.
    pub fn explain(
        &self,
        path: &str,
        opts: QueryOptions,
    ) -> CoreResult<(Vec<QueryMatch>, Explain)> {
        let started = Instant::now();
        let planned = self.plan_query(path, opts)?;
        let plan_us = started.elapsed().as_secs_f64() * 1e6;
        let mut scratch = QueryScratch::new();
        let mut out = Vec::new();
        self.execute_plan(&planned, &mut scratch, &mut out)?;
        let mut explain = build_explain(&planned, scratch.stats(), out.len());
        explain.rows.insert(
            0,
            ExplainRow {
                op: "plan".into(),
                detail: format!(
                    "planned in {plan_us:.1} us, synopsis distinct_paths={}",
                    self.synopsis().distinct_paths()
                ),
                est: None,
                actual: None,
            },
        );
        Ok((out, explain))
    }
}

/// Render a plan alongside the stats of one execution of it.
pub(crate) fn build_explain(
    planned: &PlannedQuery,
    stats: &QueryStats,
    result_count: usize,
) -> Explain {
    let plan = &planned.plan;
    let mut rows = Vec::with_capacity(plan.steps.len());
    let mut filter_idx = 0usize;
    for step in &plan.steps {
        match step {
            PlanStep::EvalFragment { frag } => {
                let fp = &plan.fragments[*frag];
                let strategy = stats
                    .strategies
                    .get(*frag)
                    .copied()
                    .unwrap_or(StrategyUsed::Pending);
                let root_test = if fp.root == DOC_NODE {
                    "/".to_string()
                } else {
                    planned.tree.nodes[fp.root].test.to_string()
                };
                let actual = match strategy {
                    StrategyUsed::Skipped | StrategyUsed::Pending => None,
                    _ => stats.starting_points.get(*frag).copied(),
                };
                let path_est = match fp.path_support {
                    Some(s) => format!(" path-est={s}"),
                    None => String::new(),
                };
                rows.push(ExplainRow {
                    op: "eval".into(),
                    detail: format!(
                        "fragment {} root={} seed={} strategy={}{} cost={} matches={}",
                        frag,
                        root_test,
                        fp.seed,
                        strategy,
                        path_est,
                        fp.est_cost,
                        stats.fragment_matches.get(*frag).copied().unwrap_or(0),
                    ),
                    est: Some(fp.est_starts),
                    actual,
                });
            }
            PlanStep::FilterChain {
                parent,
                child,
                kind,
            } => {
                let actual = stats.chain_survivors.get(filter_idx).copied();
                filter_idx += 1;
                rows.push(ExplainRow {
                    op: "filter".into(),
                    detail: format!(
                        "semijoin fragment {parent} -> {child} ({})",
                        match kind {
                            CutKind::Descendant => "descendant",
                            CutKind::Following => "following",
                        }
                    ),
                    est: None,
                    actual,
                });
            }
            PlanStep::Collect { frag } => {
                rows.push(ExplainRow {
                    op: "collect".into(),
                    detail: format!("returning fragment {frag}, sorted + deduped"),
                    est: None,
                    actual: Some(result_count as u64),
                });
            }
        }
    }
    Explain { rows }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{QueryOptions, StartStrategy};
    use crate::naive::NaiveEvaluator;
    use nok_xml::Document;

    const BIB: &str = r#"<bib>
      <book year="1994">
        <title>TCP/IP Illustrated</title>
        <author><last>Stevens</last><first>W.</first></author>
        <publisher>Addison-Wesley</publisher>
        <price>65.95</price>
      </book>
      <book year="1992">
        <title>Advanced Programming in the Unix Environment</title>
        <author><last>Stevens</last><first>W.</first></author>
        <publisher>Addison-Wesley</publisher>
        <price>65.95</price>
      </book>
      <book year="2000">
        <title>Data on the Web</title>
        <author><last>Abiteboul</last><first>Serge</first></author>
        <author><last>Buneman</last><first>Peter</first></author>
        <author><last>Suciu</last><first>Dan</first></author>
        <publisher>Morgan Kaufmann Publishers</publisher>
        <price>39.95</price>
      </book>
      <book year="1999">
        <title>The Economics of Technology and Content for Digital TV</title>
        <editor>
          <last>Gerbarg</last><first>Darcy</first>
          <affiliation>CITI</affiliation>
        </editor>
        <publisher>Kluwer Academic Publishers</publisher>
        <price>129.95</price>
      </book>
    </bib>"#;

    fn deweys(db: &crate::build::XmlDb<nok_pager::MemStorage>, q: &str) -> Vec<String> {
        db.query(q)
            .unwrap()
            .iter()
            .map(|m| m.dewey.to_string())
            .collect()
    }

    /// Engine results must equal the naive oracle on this document/query.
    fn check_against_oracle(xml: &str, query: &str) {
        let db = crate::build::XmlDb::build_in_memory(xml).unwrap();
        let doc = Document::parse(xml).unwrap();
        let oracle = NaiveEvaluator::new(&doc);
        let expected: Vec<String> = oracle
            .eval_str(query)
            .unwrap()
            .iter()
            .map(|n| oracle.dewey(n).to_string())
            .collect();
        let got = deweys(&db, query);
        assert_eq!(got, expected, "query {query} on {} bytes", xml.len());
    }

    #[test]
    fn paper_query_end_to_end() {
        let db = crate::build::XmlDb::build_in_memory(BIB).unwrap();
        let hits = db
            .query(r#"//book[author/last="Stevens"][price<100]"#)
            .unwrap();
        assert_eq!(hits.len(), 2, "the two Stevens books under 100");
        assert_eq!(db.tag_name_of(&hits[0]).unwrap(), "book");
    }

    #[test]
    fn oracle_agreement_basic() {
        for q in [
            "/bib",
            "/bib/book",
            "/bib/book/title",
            "//last",
            "//book//last",
            "/bib/book/author/last",
            "/bib/book/@year",
            "/nope",
            "//nope",
            "/bib/nope/deeper",
        ] {
            check_against_oracle(BIB, q);
        }
    }

    #[test]
    fn oracle_agreement_predicates() {
        for q in [
            r#"//book[author/last="Stevens"]"#,
            r#"//book[author/last="Stevens"][price<100]"#,
            "//book[price>100]",
            "//book[price>=129.95]",
            "//book[@year>1993]/title",
            "//book[editor]",
            "//book[author][editor]",
            r#"//book[publisher="Addison-Wesley"]/price"#,
            r#"//last[.="Stevens"]"#,
            "//book[author/first]",
        ] {
            check_against_oracle(BIB, q);
        }
    }

    #[test]
    fn oracle_agreement_descendants_and_wildcards() {
        for q in [
            "//author/*",
            "/bib/*/title",
            "/bib//last",
            "//*[affiliation]",
            "/bib/book//first",
        ] {
            check_against_oracle(BIB, q);
        }
    }

    #[test]
    fn oracle_agreement_multi_fragment() {
        for q in [
            "/bib//author/last",
            "//book//first",
            "/bib//editor//affiliation",
            "/bib/book[.//affiliation]/title",
            "//author[last]//first",
        ] {
            check_against_oracle(BIB, q);
        }
    }

    #[test]
    fn oracle_agreement_following() {
        let xml = "<a><b><x/></b><c><x/><y/></c><b2/><x/></a>";
        for q in [
            "/a/b/following::x",
            "/a/b/following::c",
            "/a/c/x/following-sibling::y",
            "/a/b/following::y",
            "//x/following::x",
        ] {
            check_against_oracle(xml, q);
        }
    }

    #[test]
    fn strategies_agree_with_each_other() {
        let db = crate::build::XmlDb::build_in_memory(BIB).unwrap();
        let q = r#"//book[author/last="Stevens"][price<100]"#;
        let mut answers = Vec::new();
        for strat in [
            StartStrategy::Auto,
            StartStrategy::Scan,
            StartStrategy::TagIndex,
            StartStrategy::ValueIndex,
        ] {
            let (hits, stats) = db.query_with(q, QueryOptions { strategy: strat }).unwrap();
            answers.push((
                hits.iter().map(|m| m.dewey.to_string()).collect::<Vec<_>>(),
                stats,
            ));
        }
        for (a, _) in &answers[1..] {
            assert_eq!(*a, answers[0].0);
        }
        // Auto must have chosen the value index here (paper's heuristic).
        assert!(answers[0].1.strategies.contains(&StrategyUsed::ValueIndex));
    }

    #[test]
    fn value_index_prunes_starting_points() {
        let db = crate::build::XmlDb::build_in_memory(BIB).unwrap();
        let (_, stats) = db
            .query_with(
                r#"//book[author/last="Abiteboul"]"#,
                QueryOptions {
                    strategy: StartStrategy::ValueIndex,
                },
            )
            .unwrap();
        // Only one book contains that author: exactly one starting point
        // for the book fragment (fragment 1; fragment 0 is the virtual doc).
        assert_eq!(stats.strategies[1], StrategyUsed::ValueIndex);
        assert_eq!(stats.starting_points[1], 1);
    }

    #[test]
    fn results_are_in_document_order_and_deduped() {
        let xml = "<a><b><c/><c/></b><b><c/></b></a>";
        let db = crate::build::XmlDb::build_in_memory(xml).unwrap();
        let hits = deweys(&db, "//c");
        assert_eq!(hits, vec!["0.0.0", "0.0.1", "0.1.0"]);
        // A query reachable through two fragment routes must not duplicate.
        check_against_oracle(xml, "/a//c");
    }

    #[test]
    fn query_match_value_access() {
        let db = crate::build::XmlDb::build_in_memory(BIB).unwrap();
        let hits = db.query("//book/price").unwrap();
        let vals: Vec<_> = hits
            .iter()
            .map(|m| db.value_of(m).unwrap().unwrap())
            .collect();
        assert_eq!(vals, vec!["65.95", "65.95", "39.95", "129.95"]);
    }

    #[test]
    fn empty_and_unknown_queries() {
        let db = crate::build::XmlDb::build_in_memory(BIB).unwrap();
        assert!(db.query("//unknowntag").unwrap().is_empty());
        assert!(db
            .query(r#"//book[title="No Such Book"]"#)
            .unwrap()
            .is_empty());
        assert!(db.query("/book").unwrap().is_empty()); // root is bib
    }

    #[test]
    fn syntax_error_surfaces() {
        let db = crate::build::XmlDb::build_in_memory(BIB).unwrap();
        assert!(db.query("not a path").is_err());
    }

    #[test]
    fn pivot_value_route_collects() {
        let xml = r#"<dblp>
      <article><author>A</author><keyword>needle-high</keyword><note>needle-high</note></article>
      <article><author>B</author><keyword>zzz</keyword><note>yyy</note></article>
      <article><author>C</author><keyword>needle-high</keyword><note>needle-high</note></article>
    </dblp>"#;
        let db = crate::build::XmlDb::build_in_memory(xml).unwrap();
        let (hits, stats) = db
            .query_with(
                r#"/dblp/article[keyword="needle-high"]"#,
                QueryOptions::default(),
            )
            .unwrap();
        eprintln!("stats={stats:?}");
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn early_exit_skips_expensive_fragments() {
        let db = crate::build::XmlDb::build_in_memory(BIB).unwrap();
        // `nosuch` is empty and cheap; the cost-ordered plan must evaluate
        // it first and skip the `last` fragment entirely.
        let (hits, stats) = db
            .query_with("//nosuch//last", QueryOptions::default())
            .unwrap();
        assert!(hits.is_empty());
        assert!(
            stats.strategies.contains(&StrategyUsed::Skipped),
            "stats={stats:?}"
        );
        // The skipped fragment tried no starting points.
        let skipped: Vec<usize> = stats
            .strategies
            .iter()
            .enumerate()
            .filter(|(_, s)| **s == StrategyUsed::Skipped)
            .map(|(i, _)| i)
            .collect();
        for f in skipped {
            assert_eq!(stats.starting_points[f], 0);
        }
    }

    #[test]
    fn scratch_pooling_reuses_buffers_and_agrees() {
        let db = crate::build::XmlDb::build_in_memory(BIB).unwrap();
        let mut scratch = QueryScratch::new();
        let mut out = Vec::new();
        for q in [
            "//book/title",
            "//last",
            r#"//book[price>100]"#,
            "//book/title",
        ] {
            db.query_into(q, QueryOptions::default(), &mut scratch, &mut out)
                .unwrap();
            let fresh = db.query(q).unwrap();
            assert_eq!(out, fresh, "pooled scratch must not change results of {q}");
        }
    }

    #[test]
    fn explain_reports_estimates_and_actuals() {
        let db = crate::build::XmlDb::build_in_memory(BIB).unwrap();
        let (hits, explain) = db
            .explain(
                r#"//book[author/last="Stevens"]//first"#,
                QueryOptions::default(),
            )
            .unwrap();
        assert!(!hits.is_empty());
        let evals: Vec<&ExplainRow> = explain.rows.iter().filter(|r| r.op == "eval").collect();
        assert!(evals.len() >= 2, "multi-fragment query: {explain}");
        assert!(
            evals.iter().any(|r| r.detail.contains("value-index")),
            "{explain}"
        );
        assert!(explain.rows.iter().any(|r| r.op == "collect"));
        assert_eq!(explain.rows[0].op, "plan", "{explain}");
        assert!(
            explain.rows[0]
                .detail
                .contains(" us, synopsis distinct_paths="),
            "{explain}"
        );
        let collect = explain.rows.last().unwrap();
        assert_eq!(collect.actual, Some(hits.len() as u64));
        // Every executed eval row has both an estimate and an actual.
        for r in &evals {
            assert!(r.est.is_some(), "{explain}");
        }
    }

    #[test]
    fn planned_and_fixed_order_agree() {
        use crate::planner::PlanConfig;
        let db = crate::build::XmlDb::build_in_memory(BIB).unwrap();
        for q in [
            "//book//last",
            r#"//book[author/last="Stevens"][price<100]"#,
            "/bib//editor//affiliation",
            "//nosuch//last",
        ] {
            let planned = db.plan_query(q, QueryOptions::default()).unwrap();
            let fixed = db
                .plan_query_with(
                    q,
                    QueryOptions::default(),
                    PlanConfig {
                        cost_ordered: false,
                        ..PlanConfig::default()
                    },
                )
                .unwrap();
            let mut s1 = QueryScratch::new();
            let mut s2 = QueryScratch::new();
            let (mut o1, mut o2) = (Vec::new(), Vec::new());
            db.execute_plan(&planned, &mut s1, &mut o1).unwrap();
            db.execute_plan(&fixed, &mut s2, &mut o2).unwrap();
            assert_eq!(o1, o2, "order must not change results of {q}");
        }
    }
}
