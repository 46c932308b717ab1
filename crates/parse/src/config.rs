//! Parse-engine configuration: the thread count and the paper's three
//! ablation toggles (function scheduling, eager non-returning-call
//! notification, the per-task decode cache).

/// How newly discovered functions are scheduled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheduling {
    /// Spawn a task per function the moment it is discovered (the
    /// improved design of Section 6.3).
    Task,
    /// Level-synchronous rounds: analyze the current function set with a
    /// parallel for, collect discoveries, repeat (Listing 2's literal
    /// structure; ablation baseline).
    Rounds,
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct ParseConfig {
    /// Worker threads (1 = the serial baseline).
    pub threads: usize,
    /// Function scheduling strategy.
    pub scheduling: Scheduling,
    /// Eagerly notify callers when a `ret` is found (Section 5.3). When
    /// off, call fall-throughs wait for full callee traversal — the
    /// serialization ablation.
    pub eager_noreturn: bool,
    /// Per-task decode cache (Section 6.3's thread-local cache).
    pub decode_cache: bool,
}

impl Default for ParseConfig {
    fn default() -> Self {
        ParseConfig {
            threads: 0, // 0 = use all available parallelism
            scheduling: Scheduling::Task,
            eager_noreturn: true,
            decode_cache: true,
        }
    }
}

impl ParseConfig {
    /// Effective thread count.
    pub fn effective_threads(&self) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        } else {
            self.threads
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_the_paper_configuration() {
        let c = ParseConfig::default();
        assert_eq!(c.scheduling, Scheduling::Task);
        assert!(c.eager_noreturn);
        assert!(c.decode_cache);
        assert!(c.effective_threads() >= 1);
    }

    #[test]
    fn explicit_thread_count_respected() {
        let c = ParseConfig { threads: 7, ..Default::default() };
        assert_eq!(c.effective_threads(), 7);
    }
}
