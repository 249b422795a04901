//! Solution refinement: interior solutions and integral repair.
//!
//! The simplex returns a *vertex* of the feasible polytope. For
//! HYDRA's dimension relations that is a poor representative: vertex solutions
//! concentrate tuple mass in as few regions as possible, which collapses
//! regions that distinguish different workload predicates. Downstream, the
//! foreign-key projection of two different dimension predicates can then land
//! on the *same* primary-key blocks, turning consistent (harvested) fact
//! constraints into contradictory LPs — exactly the additive-error mechanism
//! the paper attributes to its summary projection.
//!
//! [`refine_toward`] fixes this: starting from a feasible solution it walks
//! inside the feasible affine subspace toward an attractor point (HYDRA uses
//! the volume-proportional allocation), so every region that *can* carry mass
//! does. The walk uses cyclic projections (von Neumann) onto the equality
//! constraints' null space, so `Ax = b` is preserved to numerical precision.
//!
//! [`repair_rounded_counts`] runs after largest-remainder rounding: rounding
//! preserves the relation total but lets individual constraint groups drift by
//! a few units. A greedy integral local search moves single units between
//! regions while the total absolute constraint violation strictly decreases,
//! typically restoring every feasible constraint group to exactness.  The
//! search reads a region's constraints off the problem's [`ColumnView`] —
//! the view the LP master seeds and prices its working set with, so it
//! builds no index of its own — and caches each region's gain for a unit up
//! and a unit down; a move recomputes only the gains of constraints whose
//! violation changed sign class, so a move costs a scan of the cached gains
//! rather than of every nonzero.

use crate::problem::{ColumnView, ConstraintOp, LpProblem};

/// Moves a feasible solution toward `attractor` without leaving the equality
/// constraint subspace or the non-negative orthant.
///
/// Returns the refined solution; inputs are not modified. The problem must be
/// HYDRA-shaped: only equality constraints participate (any other operator
/// makes this a no-op), and the starting `solution` is assumed feasible.
pub fn refine_toward(problem: &LpProblem, solution: &[f64], attractor: &[f64]) -> Vec<f64> {
    let n = problem.num_vars;
    if solution.len() != n
        || attractor.len() != n
        || n == 0
        || problem.heads().iter().any(|c| c.op != ConstraintOp::Eq)
    {
        return solution.to_vec();
    }

    // Pre-compute squared norms of constraint rows.
    let norms: Vec<f64> = problem
        .constraints()
        .map(|c| c.coefs.iter().map(|coef| coef * coef).sum::<f64>())
        .collect();

    let mut x = solution.to_vec();
    // Outer iterations: each projects the remaining desire onto the null
    // space, then steps as far as the orthant allows.
    for _outer in 0..6 {
        let mut d: Vec<f64> = x.iter().zip(attractor).map(|(xi, vi)| vi - xi).collect();

        // Cyclic projections of `d` onto the intersection of the constraint
        // rows' null spaces.
        for _sweep in 0..40 {
            let mut residual = 0.0f64;
            for (c, &nrm) in problem.constraints().zip(&norms) {
                if nrm <= 1e-12 {
                    continue;
                }
                let dot: f64 = c.terms().map(|(i, coef)| coef * d[i]).sum();
                if dot.abs() > 1e-12 {
                    let scale = dot / nrm;
                    for (i, coef) in c.terms() {
                        d[i] -= scale * coef;
                    }
                    residual += dot.abs();
                }
            }
            if residual < 1e-9 {
                break;
            }
        }

        let magnitude: f64 = d.iter().map(|v| v.abs()).sum();
        if magnitude < 1e-9 {
            break;
        }

        // Largest step that keeps x non-negative; slightly damped so we do
        // not park exactly on the boundary (boundary = collapsed regions,
        // which is what we are escaping).
        let mut alpha = 1.0f64;
        for (xi, di) in x.iter().zip(&d) {
            if *di < -1e-12 {
                alpha = alpha.min(xi / -di);
            }
        }
        let step = 0.95 * alpha;
        if step < 1e-9 {
            break;
        }
        for (xi, di) in x.iter_mut().zip(&d) {
            *xi = (*xi + step * di).max(0.0);
        }
    }
    x
}

/// Greedy integral repair of rounded counts against an LP's equality
/// constraints.
///
/// Moves single units into or out of variables while the total absolute
/// violation across all equality constraints strictly decreases; when no
/// single move helps, paired (increment, decrement) moves are tried so the
/// relation total stays fixed through intermediate states that single moves
/// cannot cross. Terminates after `max_moves` applied moves at the latest.
///
/// Only applies to HYDRA-shaped problems (all-equality constraints with unit
/// coefficients); anything else is left untouched.
pub fn repair_rounded_counts(problem: &LpProblem, counts: &mut [u64], max_moves: usize) {
    let n = problem.num_vars;
    if counts.len() != n || n == 0 {
        return;
    }
    let hydra_shaped =
        problem.heads().iter().all(|c| c.op == ConstraintOp::Eq) && problem.is_zero_one();
    if !hydra_shaped {
        return;
    }
    let mut repair = Repair::new(problem, counts);
    for _ in 0..max_moves {
        if let Some((var, dir)) = repair.best_single_move(counts) {
            repair.apply(var, dir, counts);
            continue;
        }
        match repair.best_paired_move(counts) {
            Some((r, s)) => {
                repair.apply(r, 1, counts);
                repair.apply(s, -1, counts);
            }
            None => break,
        }
    }
}

/// How many top-ranked increment and decrement candidates a paired move
/// combines.
const PAIR_CANDIDATES: usize = 24;

/// A constraint's contribution to the gain of bumping one of its variables
/// up: +1 when the move shrinks its `|delta|`, -1 when it grows it.
fn inc_term(delta: i64) -> i64 {
    if delta < 0 {
        1
    } else {
        -1
    }
}

/// [`inc_term`] for bumping a variable down.
fn dec_term(delta: i64) -> i64 {
    if delta > 0 {
        1
    } else {
        -1
    }
}

/// The state of [`repair_rounded_counts`]: each constraint's signed delta
/// (achieved minus target) and each variable's cached single-move gains.
///
/// A gain is the number of the variable's constraints whose `|delta|` the
/// move shrinks minus the number it grows.  It depends on a constraint's
/// delta only through its sign class (negative, zero, positive), so a move
/// touches a constraint's variables only when it moves that constraint's
/// delta across a class boundary.
struct Repair<'a> {
    problem: &'a LpProblem,
    /// Each variable's constraints, one entry per term.
    member: &'a ColumnView,
    delta: Vec<i64>,
    gain_inc: Vec<i64>,
    gain_dec: Vec<i64>,
}

impl<'a> Repair<'a> {
    /// Sums each constraint's counts over the variables holding any, then
    /// each variable's gains over its constraints — both column by column.
    fn new(problem: &'a LpProblem, counts: &[u64]) -> Repair<'a> {
        let member = problem.columns();
        let mut delta: Vec<i64> = problem
            .heads()
            .iter()
            .map(|c| -(c.rhs.round() as i64))
            .collect();
        for (var, &count) in counts.iter().enumerate() {
            if count > 0 {
                for &k in member.rows(var) {
                    delta[k as usize] += count as i64;
                }
            }
        }
        let terms: Vec<(i64, i64)> = delta.iter().map(|&d| (inc_term(d), dec_term(d))).collect();
        let (mut gain_inc, mut gain_dec) = (
            Vec::with_capacity(counts.len()),
            Vec::with_capacity(counts.len()),
        );
        for var in 0..counts.len() {
            let (mut inc, mut dec) = (0i64, 0i64);
            for &k in member.rows(var) {
                let (i, d) = terms[k as usize];
                inc += i;
                dec += d;
            }
            gain_inc.push(inc);
            gain_dec.push(dec);
        }
        Repair {
            problem,
            member,
            delta,
            gain_inc,
            gain_dec,
        }
    }

    /// The first single move of the largest positive gain, scanning
    /// variables in order and, per variable, the increment before the
    /// decrement.
    fn best_single_move(&self, counts: &[u64]) -> Option<(usize, i64)> {
        let mut best: Option<(usize, i64, i64)> = None; // (var, dir, gain)
        for (var, &count) in counts.iter().enumerate() {
            let up = self.gain_inc[var];
            if best.map(|(_, _, g)| up > g).unwrap_or(up > 0) {
                best = Some((var, 1, up));
            }
            if count > 0 {
                let down = self.gain_dec[var];
                if best.map(|(_, _, g)| down > g).unwrap_or(down > 0) {
                    best = Some((var, -1, down));
                }
            }
        }
        best.map(|(var, dir, _)| (var, dir))
    }

    /// Paired move: +1 on `r`, -1 on `s`. Ranks candidates separately by
    /// their single-move gains, evaluates the top combinations exactly (the
    /// union of their memberships) and returns the first improvement.
    fn best_paired_move(&self, counts: &[u64]) -> Option<(usize, usize)> {
        let inc_rank = top_ranked((0..counts.len()).map(|v| (self.gain_inc[v], v)).collect());
        let dec_rank = top_ranked(
            (0..counts.len())
                .filter(|&v| counts[v] > 0)
                .map(|v| (self.gain_dec[v], v))
                .collect(),
        );
        for &(_, r) in &inc_rank {
            for &(_, s) in &dec_rank {
                if r == s {
                    continue;
                }
                let (member_r, member_s) = (self.member.rows(r), self.member.rows(s));
                let mut change = 0i64;
                for &k in member_r {
                    if !member_s.contains(&k) {
                        let d = self.delta[k as usize];
                        change += (d + 1).abs() - d.abs();
                    }
                }
                for &k in member_s {
                    if !member_r.contains(&k) {
                        let d = self.delta[k as usize];
                        change += (d - 1).abs() - d.abs();
                    }
                }
                if change < 0 {
                    return Some((r, s));
                }
            }
        }
        None
    }

    /// Moves one unit into (`dir = 1`) or out of (`dir = -1`) `var`,
    /// updating the deltas and, for each constraint whose delta changes
    /// sign class, the gains of that constraint's variables.
    fn apply(&mut self, var: usize, dir: i64, counts: &mut [u64]) {
        if dir > 0 {
            counts[var] += 1;
        } else {
            counts[var] -= 1;
        }
        for &k in self.member.rows(var) {
            let k = k as usize;
            let old = self.delta[k];
            let new = old + dir;
            self.delta[k] = new;
            let inc = inc_term(new) - inc_term(old);
            let dec = dec_term(new) - dec_term(old);
            if inc != 0 || dec != 0 {
                for &v in self.problem.constraint(k).columns {
                    self.gain_inc[v as usize] += inc;
                    self.gain_dec[v as usize] += dec;
                }
            }
        }
    }
}

/// The [`PAIR_CANDIDATES`] largest `(gain, variable)` pairs, largest first
/// — the head of the full descending sort, found by selection.
fn top_ranked(mut rank: Vec<(i64, usize)>) -> Vec<(i64, usize)> {
    if rank.len() > PAIR_CANDIDATES {
        rank.select_nth_unstable_by(PAIR_CANDIDATES - 1, |a, b| b.cmp(a));
        rank.truncate(PAIR_CANDIDATES);
    }
    rank.sort_unstable_by(|a, b| b.cmp(a));
    rank
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::LpProblem;
    use crate::solver::LpSolver;
    use proptest::prelude::*;

    /// x0 + x1 = 10, x0 + x2 = 10, total = 20. Vertex solutions put all mass
    /// in x0; the volume-proportional attractor spreads it.
    #[test]
    fn refine_escapes_degenerate_vertices() {
        let mut lp = LpProblem::new(4);
        lp.add_constraint(vec![(0, 1.0), (1, 1.0)], ConstraintOp::Eq, 10.0);
        lp.add_constraint(vec![(0, 1.0), (2, 1.0)], ConstraintOp::Eq, 10.0);
        lp.add_constraint(
            vec![(0, 1.0), (1, 1.0), (2, 1.0), (3, 1.0)],
            ConstraintOp::Eq,
            20.0,
        );
        let sol = LpSolver.solve(&lp).unwrap();
        let attractor = vec![5.0; 4];
        let refined = refine_toward(&lp, &sol.values, &attractor);
        // Still feasible...
        assert!(
            lp.is_feasible(&refined, 1e-6),
            "refined {refined:?} infeasible"
        );
        // ...and the previously-empty complement regions now carry mass.
        assert!(refined[1] > 0.5, "x1 still collapsed: {refined:?}");
        assert!(refined[2] > 0.5, "x2 still collapsed: {refined:?}");
    }

    #[test]
    fn refine_is_noop_for_non_equality_problems() {
        let mut lp = LpProblem::new(2);
        lp.add_constraint(vec![(0, 1.0)], ConstraintOp::Le, 5.0);
        let x = vec![1.0, 2.0];
        assert_eq!(refine_toward(&lp, &x, &[9.0, 9.0]), x);
    }

    #[test]
    fn repair_restores_constraint_groups() {
        // Two overlapping groups; rounding drifted both by one unit.
        let mut lp = LpProblem::new(3);
        lp.add_constraint(vec![(0, 1.0), (1, 1.0)], ConstraintOp::Eq, 10.0);
        lp.add_constraint(vec![(1, 1.0), (2, 1.0)], ConstraintOp::Eq, 8.0);
        lp.add_constraint(vec![(0, 1.0), (1, 1.0), (2, 1.0)], ConstraintOp::Eq, 14.0);
        let mut counts = vec![7, 4, 3]; // groups achieve 11 and 7, total 14
        repair_rounded_counts(&lp, &mut counts, 100);
        assert_eq!(counts[0] + counts[1], 10);
        assert_eq!(counts[1] + counts[2], 8);
        assert_eq!(counts.iter().sum::<u64>(), 14);
    }

    #[test]
    fn repair_never_increases_total_violation() {
        let mut lp = LpProblem::new(2);
        // Contradictory system: no integral point satisfies both.
        lp.add_constraint(vec![(0, 1.0)], ConstraintOp::Eq, 5.0);
        lp.add_constraint(vec![(0, 1.0)], ConstraintOp::Eq, 7.0);
        let violation =
            |counts: &[u64]| -> i64 { (counts[0] as i64 - 5).abs() + (counts[0] as i64 - 7).abs() };
        let mut counts = vec![6, 0];
        let before = violation(&counts);
        repair_rounded_counts(&lp, &mut counts, 100);
        assert!(violation(&counts) <= before);
    }

    /// The greedy repair as it was first written: every gain recomputed
    /// from the membership lists on every move.  Kept as the reference the
    /// incremental repair must reproduce move for move.
    fn repair_reference(problem: &LpProblem, counts: &mut [u64], max_moves: usize) {
        let n = problem.num_vars;
        if counts.len() != n || n == 0 {
            return;
        }
        let hydra_shaped = problem
            .constraints()
            .all(|c| c.op == ConstraintOp::Eq && c.terms().all(|(_, coef)| coef == 1.0));
        if !hydra_shaped {
            return;
        }
        let mut member: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (k, c) in problem.constraints().enumerate() {
            for (i, _) in c.terms() {
                member[i].push(k);
            }
        }
        let mut delta: Vec<i64> = problem
            .constraints()
            .map(|c| {
                let achieved: i64 = c.terms().map(|(i, _)| counts[i] as i64).sum();
                achieved - c.rhs.round() as i64
            })
            .collect();
        let gain_inc = |var: usize, delta: &[i64]| -> i64 {
            member[var]
                .iter()
                .map(|&k| if delta[k] < 0 { 1 } else { -1 })
                .sum()
        };
        let gain_dec = |var: usize, delta: &[i64]| -> i64 {
            member[var]
                .iter()
                .map(|&k| if delta[k] > 0 { 1 } else { -1 })
                .sum()
        };
        let apply = |var: usize, dir: i64, counts: &mut [u64], delta: &mut [i64]| {
            if dir > 0 {
                counts[var] += 1;
            } else {
                counts[var] -= 1;
            }
            for &k in &member[var] {
                delta[k] += dir;
            }
        };
        for _ in 0..max_moves {
            let mut best: Option<(usize, i64, i64)> = None;
            for (var, &count) in counts.iter().enumerate() {
                let up = gain_inc(var, &delta);
                if best.map(|(_, _, g)| up > g).unwrap_or(up > 0) {
                    best = Some((var, 1, up));
                }
                if count > 0 {
                    let down = gain_dec(var, &delta);
                    if best.map(|(_, _, g)| down > g).unwrap_or(down > 0) {
                        best = Some((var, -1, down));
                    }
                }
            }
            if let Some((var, dir, _)) = best {
                apply(var, dir, counts, &mut delta);
                continue;
            }
            let mut inc_rank: Vec<(i64, usize)> =
                (0..n).map(|v| (gain_inc(v, &delta), v)).collect();
            let mut dec_rank: Vec<(i64, usize)> = (0..n)
                .filter(|&v| counts[v] > 0)
                .map(|v| (gain_dec(v, &delta), v))
                .collect();
            inc_rank.sort_unstable_by(|a, b| b.cmp(a));
            dec_rank.sort_unstable_by(|a, b| b.cmp(a));
            let mut applied = false;
            'pairs: for &(_, r) in inc_rank.iter().take(24) {
                for &(_, s) in dec_rank.iter().take(24) {
                    if r == s {
                        continue;
                    }
                    let mut change = 0i64;
                    for &k in &member[r] {
                        if !member[s].contains(&k) {
                            change += (delta[k] + 1).abs() - delta[k].abs();
                        }
                    }
                    for &k in &member[s] {
                        if !member[r].contains(&k) {
                            change += (delta[k] - 1).abs() - delta[k].abs();
                        }
                    }
                    if change < 0 {
                        apply(r, 1, counts, &mut delta);
                        apply(s, -1, counts, &mut delta);
                        applied = true;
                        break 'pairs;
                    }
                }
            }
            if !applied {
                break;
            }
        }
    }

    /// A random 0/1 equality system with rounded counts to repair: `n`
    /// variables, constraints of random width whose terms may repeat a
    /// variable, targets near the counts' sums, and a move budget that
    /// sometimes runs out.
    fn rounded_system() -> impl Strategy<Value = (LpProblem, Vec<u64>, usize)> {
        (1usize..60, 1usize..10).prop_flat_map(|(n, m)| {
            let row = (proptest::collection::vec(0..n, 0..40), 0i64..9);
            let rows = proptest::collection::vec(row, m);
            let counts = proptest::collection::vec(0u64..6, n);
            (rows, counts, 0usize..300).prop_map(move |(rows, counts, max_moves)| {
                let mut lp = LpProblem::new(n);
                for (terms, drift) in rows {
                    let achieved: u64 = terms.iter().map(|&j| counts[j]).sum();
                    let rhs = (achieved as i64 + drift - 4).max(0) as f64;
                    lp.add_constraint(
                        terms.into_iter().map(|j| (j, 1.0)).collect(),
                        ConstraintOp::Eq,
                        rhs,
                    );
                }
                lp.add_constraint(
                    (0..n).map(|j| (j, 1.0)).collect(),
                    ConstraintOp::Eq,
                    counts.iter().sum::<u64>() as f64,
                );
                (lp, counts, max_moves)
            })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The incremental repair makes exactly the reference's moves.
        #[test]
        fn repair_matches_the_reference((lp, counts, max_moves) in rounded_system()) {
            let mut repaired = counts.clone();
            repair_rounded_counts(&lp, &mut repaired, max_moves);
            let mut reference = counts.clone();
            repair_reference(&lp, &mut reference, max_moves);
            prop_assert_eq!(repaired, reference, "from {:?}", counts);
        }
    }

    #[test]
    fn repair_ignores_non_unit_coefficients() {
        let mut lp = LpProblem::new(2);
        lp.add_constraint(vec![(0, 2.0), (1, 1.0)], ConstraintOp::Eq, 10.0);
        let mut counts = vec![3, 3];
        repair_rounded_counts(&lp, &mut counts, 100);
        assert_eq!(counts, vec![3, 3]);
    }
}
