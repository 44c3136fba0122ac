//! Thread-count resolution for the sweep service, plus the inert
//! [`CoreBudget`] kept for source compatibility.
//!
//! Every solve runs serially: the only parallelism in the workspace is
//! across sweep points (`wampde-cli --jobs N`), which is what
//! [`resolve_thread_count`] sizes.

/// Inert: solves are serial; kept only because `vcobench` still names it.
#[derive(Debug, Clone, Copy, Default)]
pub struct CoreBudget;

impl CoreBudget {
    /// Does nothing; kept only because `vcobench` still calls it.
    pub fn new(_total: usize, _solver_cap: usize) -> Self {
        CoreBudget
    }

    /// Does nothing; kept only because `vcobench` still calls it.
    pub fn occupy(&self, _n: usize) {}

    /// Does nothing; kept only because `vcobench` still calls it.
    pub fn install(&self) {}
}

/// Resolves a user-facing thread-count flag: `0` means "auto" — the
/// machine's [`std::thread::available_parallelism`] (1 when that is
/// unavailable). Used for `wampde-cli --jobs 0`.
pub fn resolve_thread_count(requested: usize) -> usize {
    if requested > 0 {
        requested
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_zero_is_machine_parallelism() {
        assert_eq!(resolve_thread_count(3), 3);
        let auto = resolve_thread_count(0);
        assert!(auto >= 1);
        assert_eq!(
            auto,
            std::thread::available_parallelism().map_or(1, |n| n.get())
        );
    }
}
