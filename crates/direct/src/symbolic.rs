//! Symbolic analysis: reachability in the column graph of a partially built
//! lower-triangular factor.
//!
//! The Gilbert–Peierls factorization computes one column of `L`/`U` per step
//! by solving a sparse triangular system `L x = A(:, j)` whose nonzero
//! pattern is the set of nodes *reachable* from the pattern of `A(:, j)` in
//! the directed graph of `L` (an edge `i → r` for every stored entry
//! `L[r, i]`).  [`reach`] computes that pattern in topological order so the
//! numeric phase can process it in a single pass.

/// Growing compressed-column storage of a triangular factor while it is being
/// built.  Row indices are kept in the *original* row numbering during
/// factorization (the pivot permutation is applied when the factor is
/// finalized).
#[derive(Debug, Clone)]
pub struct FactorColumns {
    /// `col_ptr[j]..col_ptr[j+1]` delimits column `j`.
    pub col_ptr: Vec<usize>,
    /// Row index of every stored entry.
    pub rows: Vec<usize>,
    /// Value of every stored entry.
    pub values: Vec<f64>,
}

impl FactorColumns {
    /// Creates an empty factor with capacity hints.
    pub fn with_capacity(cols_hint: usize, nnz_hint: usize) -> Self {
        let mut col_ptr = Vec::with_capacity(cols_hint + 1);
        col_ptr.push(0);
        FactorColumns {
            col_ptr,
            rows: Vec::with_capacity(nnz_hint),
            values: Vec::with_capacity(nnz_hint),
        }
    }

    /// Number of finished columns.
    pub fn num_cols(&self) -> usize {
        self.col_ptr.len() - 1
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.rows.len()
    }

    /// Appends a column given as `(row, value)` pairs.
    pub fn push_column(&mut self, entries: impl IntoIterator<Item = (usize, f64)>) {
        for (r, v) in entries {
            self.rows.push(r);
            self.values.push(v);
        }
        self.col_ptr.push(self.rows.len());
    }

    /// Iterates over the `(row, value)` entries of column `j`.
    pub fn col(&self, j: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let lo = self.col_ptr[j];
        let hi = self.col_ptr[j + 1];
        self.rows[lo..hi]
            .iter()
            .copied()
            .zip(self.values[lo..hi].iter().copied())
    }

    /// Row indices of column `j`.
    pub fn col_rows(&self, j: usize) -> &[usize] {
        &self.rows[self.col_ptr[j]..self.col_ptr[j + 1]]
    }

    /// The `(rows, values)` slices of column `j`.
    pub fn entries(&self, j: usize) -> (&[usize], &[f64]) {
        let (lo, hi) = (self.col_ptr[j], self.col_ptr[j + 1]);
        (&self.rows[lo..hi], &self.values[lo..hi])
    }

    /// The same columns over `n_rows` rows, with row `r` renamed
    /// `row_map(r)` and each column's entries sorted by the new row index.
    /// `row_map` must be injective on every column.
    pub fn renumbered(&self, n_rows: usize, row_map: impl Fn(usize) -> usize) -> FactorColumns {
        self.transposed(n_rows, row_map)
            .transposed(self.num_cols(), |j| j)
    }

    /// The transpose over `n_rows` rows, with row `r` renamed `row_map(r)`:
    /// column `i` of the result lists the columns of `self` that store row
    /// `i`, in ascending order.  A counting sort, `O(nnz + n_rows)`.
    pub fn transposed(&self, n_rows: usize, row_map: impl Fn(usize) -> usize) -> FactorColumns {
        let mut col_ptr = vec![0usize; n_rows + 1];
        for &r in &self.rows {
            col_ptr[row_map(r) + 1] += 1;
        }
        for i in 0..n_rows {
            col_ptr[i + 1] += col_ptr[i];
        }
        let mut next = col_ptr[..n_rows].to_vec();
        let mut rows = vec![0usize; self.nnz()];
        let mut values = vec![0.0f64; self.nnz()];
        for j in 0..self.num_cols() {
            for p in self.col_ptr[j]..self.col_ptr[j + 1] {
                let i = row_map(self.rows[p]);
                rows[next[i]] = j;
                values[next[i]] = self.values[p];
                next[i] += 1;
            }
        }
        FactorColumns {
            col_ptr,
            rows,
            values,
        }
    }
}

/// Scratch space reused across [`reach`] calls to avoid per-column
/// allocations.
#[derive(Debug)]
pub struct ReachWorkspace {
    /// Visit marks, one per row; a row is visited when `mark[row] == stamp`.
    mark: Vec<usize>,
    /// Current stamp (incremented per reach call).
    stamp: usize,
    /// Explicit DFS stack of `(row, next_child_offset)` pairs.
    dfs: Vec<(usize, usize)>,
    /// The pattern of the last [`reach`] call, in topological order.
    pattern: Vec<usize>,
}

impl ReachWorkspace {
    /// Creates a workspace for matrices of order `n`.
    pub fn new(n: usize) -> Self {
        ReachWorkspace {
            mark: vec![0; n],
            stamp: 0,
            dfs: Vec::with_capacity(n),
            pattern: Vec::with_capacity(n),
        }
    }
}

/// Computes the set of rows reachable from `seed_rows` in the graph of the
/// partially built factor `l`, where a row `i` that has already been pivoted
/// (i.e. `pinv[i] != usize::MAX`) links to the rows stored in
/// `l.rows[l.col_ptr[pinv[i]]..lpend[pinv[i]]]`.
///
/// `lpend[k]` ends the part of `L(:, k)` the search follows: `l.col_ptr[k+1]`
/// for the whole column, less when symmetric pruning has shown the rest to
/// be reachable through another column (see [`crate::gplu`]).  Passing
/// `&l.col_ptr[1..]` follows every stored edge.
///
/// The result is returned in **topological order**: for every edge `i → r`,
/// row `i` appears before row `r`.  The numeric phase can therefore apply the
/// updates in a single forward pass over the returned list, which lives in
/// `ws` until the next call.
pub fn reach<'w>(
    l: &FactorColumns,
    lpend: &[usize],
    pinv: &[usize],
    seed_rows: &[usize],
    ws: &'w mut ReachWorkspace,
) -> &'w [usize] {
    ws.stamp += 1;
    let stamp = ws.stamp;
    ws.pattern.clear();

    for &seed in seed_rows {
        if ws.mark[seed] == stamp {
            continue;
        }
        ws.dfs.clear();
        ws.dfs.push((seed, 0));
        ws.mark[seed] = stamp;
        while let Some(&mut (row, ref mut child)) = ws.dfs.last_mut() {
            let col = pinv[row];
            let children: &[usize] = if col == usize::MAX {
                &[]
            } else {
                &l.rows[l.col_ptr[col]..lpend[col]]
            };
            if *child < children.len() {
                let next = children[*child];
                *child += 1;
                if ws.mark[next] != stamp {
                    ws.mark[next] = stamp;
                    ws.dfs.push((next, 0));
                }
            } else {
                ws.pattern.push(row);
                ws.dfs.pop();
            }
        }
    }

    // Post-order finishes children before parents; reversing yields a
    // topological order (parents before children).
    ws.pattern.reverse();
    &ws.pattern
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_columns_push_and_iterate() {
        let mut f = FactorColumns::with_capacity(2, 4);
        f.push_column([(1, 0.5), (3, -0.25)]);
        f.push_column([]);
        assert_eq!(f.num_cols(), 2);
        assert_eq!(f.nnz(), 2);
        let c0: Vec<_> = f.col(0).collect();
        assert_eq!(c0, vec![(1, 0.5), (3, -0.25)]);
        assert!(f.col(1).next().is_none());
        assert_eq!(f.col_rows(0), &[1, 3]);
    }

    #[test]
    fn renumbered_maps_rows_and_sorts_each_column() {
        let mut f = FactorColumns::with_capacity(2, 4);
        f.push_column([(0, 1.0), (2, 2.0), (1, 3.0)]);
        f.push_column([(2, 4.0)]);
        // Rows 0, 1, 2 become 2, 0, 1.
        let map = [2, 0, 1];
        let g = f.renumbered(3, |r| map[r]);
        assert_eq!(g.col_ptr, f.col_ptr);
        assert_eq!(g.col(0).collect::<Vec<_>>(), [(0, 3.0), (1, 2.0), (2, 1.0)]);
        assert_eq!(g.col(1).collect::<Vec<_>>(), [(1, 4.0)]);
    }

    #[test]
    fn reach_without_pivoted_rows_is_just_the_seeds() {
        let l = FactorColumns::with_capacity(0, 0);
        let pinv = vec![usize::MAX; 4];
        let mut ws = ReachWorkspace::new(4);
        let r = reach(&l, &l.col_ptr[1..], &pinv, &[2, 0], &mut ws);
        assert_eq!(r.len(), 2);
        assert!(r.contains(&2) && r.contains(&0));
    }

    #[test]
    fn reach_follows_factor_columns_topologically() {
        // L column 0 has entries in rows 1 and 2 (original numbering).
        // Row 0 was pivoted at step 0 (pinv[0] = 0).
        let mut l = FactorColumns::with_capacity(1, 2);
        l.push_column([(1, 0.5), (2, 0.25)]);
        let mut pinv = vec![usize::MAX; 3];
        pinv[0] = 0;
        let mut ws = ReachWorkspace::new(3);
        let r = reach(&l, &l.col_ptr[1..], &pinv, &[0], &mut ws);
        // Row 0 must come before rows 1 and 2 it updates.
        assert_eq!(r[0], 0);
        assert_eq!(r.len(), 3);
        assert!(r.contains(&1) && r.contains(&2));
    }

    #[test]
    fn reach_handles_chained_dependencies() {
        // Column 0 updates row 1; column 1 (pivot row 1) updates row 2.
        let mut l = FactorColumns::with_capacity(2, 2);
        l.push_column([(1, 0.5)]);
        l.push_column([(2, 0.5)]);
        let mut pinv = vec![usize::MAX; 3];
        pinv[0] = 0;
        pinv[1] = 1;
        let mut ws = ReachWorkspace::new(3);
        let r = reach(&l, &l.col_ptr[1..], &pinv, &[0], &mut ws);
        assert_eq!(r, vec![0, 1, 2]);
    }

    #[test]
    fn reach_deduplicates_across_seeds() {
        let mut l = FactorColumns::with_capacity(1, 1);
        l.push_column([(2, 1.0)]);
        let mut pinv = vec![usize::MAX; 3];
        pinv[0] = 0;
        let mut ws = ReachWorkspace::new(3);
        let r = reach(&l, &l.col_ptr[1..], &pinv, &[0, 2], &mut ws);
        assert_eq!(r.len(), 2);
        // topological: 0 before 2
        assert_eq!(r, vec![0, 2]);
    }

    #[test]
    fn workspace_is_reusable() {
        let l = FactorColumns::with_capacity(0, 0);
        let pinv = vec![usize::MAX; 3];
        let mut ws = ReachWorkspace::new(3);
        let first = reach(&l, &l.col_ptr[1..], &pinv, &[1], &mut ws).to_vec();
        let second = reach(&l, &l.col_ptr[1..], &pinv, &[1, 2], &mut ws);
        assert_eq!(first, vec![1]);
        assert_eq!(second.len(), 2);
    }
}
