//! Deterministic synthetic window streams for tests and benches.
//!
//! The scenario catalog is bursty: a DDoS or a scan churns most cells every
//! window, so the delta codec ships those windows in full. [`SteadyWindows`]
//! is the opposite shape — a fixed set of hot cells with ~2% churn per
//! window, like campus traffic between incidents — and is the input that
//! keeps the delta path covered.

use crate::stream::{StreamError, WindowStream};
use crate::window::{IngestStats, WindowReport};
use std::time::Duration;
use tw_matrix::CsrMatrix;

/// The simulated duration of one [`SteadyWindows`] window.
const WINDOW_US: u64 = 50_000;

/// A steady window sequence over `nodes` addresses: `hot` stable cells,
/// ~2% value churn per window plus a trickle of deletes and inserts (so a
/// delta carries both of its lists). The same arguments always yield the
/// same windows.
#[derive(Debug, Clone)]
pub struct SteadyWindows {
    nodes: usize,
    cells: Vec<(usize, usize, u64)>,
    state: u64,
    /// Value rewrites per window (~2% of the hot set).
    churn: usize,
    next_index: u64,
    remaining: usize,
}

impl SteadyWindows {
    /// `windows` windows over `nodes` addresses with `hot` cells each
    /// (capped at half the matrix), generated from `seed`.
    pub fn new(nodes: usize, hot: usize, windows: usize, seed: u64) -> Self {
        let nodes = nodes.max(1);
        let hot = hot.clamp(1, (nodes * nodes / 2).max(1));
        let mut state = seed;
        let mut cells: Vec<(usize, usize, u64)> = Vec::with_capacity(hot + hot / 4 + 8);
        while cells.len() < hot {
            let need = hot - cells.len();
            for _ in 0..need + need / 4 + 8 {
                let r = lcg(&mut state) as usize % nodes;
                let c = lcg(&mut state) as usize % nodes;
                cells.push((r, c, lcg(&mut state) | 1));
            }
            cells.sort_unstable_by_key(|&(r, c, _)| (r, c));
            cells.dedup_by_key(|&mut (r, c, _)| (r, c));
        }
        cells.truncate(hot);
        SteadyWindows {
            nodes,
            cells,
            state,
            churn: (hot / 50).max(1),
            next_index: 0,
            remaining: windows,
        }
    }

    /// Churn the hot set once: rewrite ~2% of the values, move a quarter
    /// as many cells.
    fn churn(&mut self) {
        let (nodes, churn) = (self.nodes, self.churn);
        let state = &mut self.state;
        let cells = &mut self.cells;
        for _ in 0..churn {
            let i = lcg(state) as usize % cells.len();
            cells[i].2 = lcg(state) | 1;
        }
        for _ in 0..(churn / 4).max(1) {
            let i = lcg(state) as usize % cells.len();
            cells.remove(i);
            let (r, c) = (lcg(state) as usize % nodes, lcg(state) as usize % nodes);
            let v = lcg(state) | 1;
            match cells.binary_search_by_key(&(r, c), |&(r, c, _)| (r, c)) {
                Ok(i) => cells[i].2 = v,
                Err(i) => cells.insert(i, (r, c, v)),
            }
        }
    }
}

/// The LCG the scenario sources use inline: deterministic without a rand
/// dependency in callers.
fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

impl Iterator for SteadyWindows {
    type Item = WindowReport;

    fn next(&mut self) -> Option<WindowReport> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        if self.next_index > 0 {
            self.churn();
        }
        let matrix = CsrMatrix::from_sorted_triples(self.nodes, self.nodes, &self.cells);
        let churn = self.churn as u64;
        let report = WindowReport {
            stats: IngestStats {
                window_index: self.next_index,
                events: churn,
                packets: churn * 3,
                nnz: matrix.nnz(),
                dropped_late: 0,
                reordered: 0,
                elapsed: Duration::from_micros(50),
            },
            matrix,
        };
        self.next_index += 1;
        Some(report)
    }
}

impl WindowStream for SteadyWindows {
    fn next_window(&mut self) -> Result<Option<WindowReport>, StreamError> {
        Ok(self.next())
    }

    fn node_count(&self) -> usize {
        self.nodes
    }

    fn window_us(&self) -> u64 {
        WINDOW_US
    }

    fn remaining_windows(&self) -> Option<usize> {
        Some(self.remaining)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::CadenceEncoder;

    #[test]
    fn steady_windows_are_deterministic_and_ship_as_deltas() {
        let windows: Vec<WindowReport> = SteadyWindows::new(64, 300, 4, 9).collect();
        assert_eq!(windows.len(), 4);
        assert_eq!(
            windows,
            SteadyWindows::new(64, 300, 4, 9).collect::<Vec<_>>()
        );
        let mut encoder = CadenceEncoder::new(4);
        let shipped: Vec<bool> = windows.iter().map(|w| encoder.encode(w).delta).collect();
        assert_eq!(shipped, [false, true, true, true]);
    }
}
