//! Knee search: the highest offered rate a system sustains, located by
//! bisection to a stated resolution instead of read off a fixed ladder.
//!
//! The search first brackets the knee (doubling up from the last passing
//! rate, halving down from a failing one), then bisects geometrically
//! between the last passing and the first failing rate until they are
//! within `resolution` of each other. A stage whose load generator fell
//! behind its own schedule is [`Verdict::Invalid`]: it says nothing about
//! the system, so it can never become the knee, and the search treats it
//! like a failure (the rate is not shown to pass).

/// Outcome of one fixed-rate stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The system kept up and met the latency limit.
    Pass,
    /// The system fell behind or missed the latency limit.
    Fail,
    /// The generator fell behind schedule; the stage measured nothing.
    Invalid,
}

/// Result of a knee search.
#[derive(Debug, Clone, PartialEq)]
pub struct Knee {
    /// Highest passing rate, 0 when no stage passed.
    pub rate: f64,
    /// Lowest non-passing rate above `rate`, if one was found.
    pub first_fail: Option<f64>,
    /// Every stage run, in order.
    pub stages: Vec<(f64, Verdict)>,
    /// Whether `first_fail / rate ≤ 1 + resolution` was reached.
    pub resolved: bool,
}

/// Searches for the knee. `known_pass` is a rate already shown to pass (it
/// seeds the lower bracket without a stage); `start` is the first rate
/// probed. At most `max_stages` calls are made to `probe`, and no rate
/// below `floor` is probed.
pub fn search(
    known_pass: Option<f64>,
    start: f64,
    resolution: f64,
    floor: f64,
    max_stages: usize,
    mut probe: impl FnMut(f64) -> Verdict,
) -> Knee {
    let mut lo = known_pass;
    let mut hi: Option<f64> = None;
    let mut stages = Vec::new();
    let mut rate = start;
    let resolved = |lo: Option<f64>, hi: Option<f64>| match (lo, hi) {
        (Some(l), Some(h)) => h <= l * (1.0 + resolution),
        _ => false,
    };
    while stages.len() < max_stages && !resolved(lo, hi) && rate >= floor {
        let v = probe(rate);
        stages.push((rate, v));
        if v == Verdict::Pass {
            lo = Some(lo.map_or(rate, |l| l.max(rate)));
        } else {
            hi = Some(hi.map_or(rate, |h| h.min(rate)));
        }
        rate = match (lo, hi) {
            (Some(l), Some(h)) => (l * h).sqrt(),
            (Some(l), None) => l * 2.0,
            (None, Some(h)) => h / 2.0,
            (None, None) => unreachable!("a stage always sets one bound"),
        };
    }
    Knee {
        rate: lo.unwrap_or(0.0),
        first_fail: hi,
        stages,
        resolved: resolved(lo, hi),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic system that sustains up to `cap` qps.
    fn curve(cap: f64) -> impl FnMut(f64) -> Verdict {
        move |r| {
            if r <= cap {
                Verdict::Pass
            } else {
                Verdict::Fail
            }
        }
    }

    #[test]
    fn brackets_upward_then_resolves_to_five_percent() {
        let k = search(Some(1000.0), 2000.0, 0.05, 50.0, 20, curve(2345.0));
        assert!(k.resolved);
        assert!(
            k.rate <= 2345.0 && k.rate >= 2345.0 / 1.05,
            "knee {}",
            k.rate
        );
        let hi = k.first_fail.expect("bracketed");
        assert!(hi > 2345.0 && hi <= k.rate * 1.05);
        // Doubling found the bracket [2000, 4000] in two stages.
        assert_eq!(k.stages[0], (2000.0, Verdict::Pass));
        assert_eq!(k.stages[1], (4000.0, Verdict::Fail));
    }

    #[test]
    fn brackets_downward_when_the_start_fails() {
        let k = search(None, 2000.0, 0.05, 50.0, 20, curve(333.0));
        assert!(k.resolved);
        assert!(k.rate <= 333.0 && k.rate >= 333.0 / 1.05, "knee {}", k.rate);
    }

    #[test]
    fn invalid_stages_are_never_the_knee() {
        // The system would pass up to 3000, but the generator cannot keep
        // up above 1500: those stages are invalid, so the knee stays below.
        let k = search(Some(1000.0), 2000.0, 0.05, 50.0, 20, |r| {
            if r > 1500.0 {
                Verdict::Invalid
            } else {
                Verdict::Pass
            }
        });
        assert!(k.rate <= 1500.0);
        assert!(k
            .stages
            .iter()
            .all(|&(r, v)| v != Verdict::Invalid || r > 1500.0));
        assert!(k
            .stages
            .iter()
            .filter(|s| s.1 == Verdict::Pass)
            .all(|s| s.0 <= k.rate));
    }

    #[test]
    fn stage_budget_bounds_the_search() {
        let k = search(None, 1.0, 0.05, 0.5, 4, curve(1e9));
        assert_eq!(k.stages.len(), 4);
        assert!(!k.resolved);
        assert_eq!(k.rate, 8.0);
        let k = search(None, 100.0, 0.05, 40.0, 20, curve(0.0));
        assert_eq!(k.rate, 0.0);
        assert_eq!(k.stages.len(), 2, "stops at the floor: 100, 50");
    }
}
