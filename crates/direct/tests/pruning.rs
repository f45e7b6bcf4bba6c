//! Soundness of symmetric pruning in the Gilbert–Peierls kernel.
//!
//! Small-integer entries make exact cancellation common, and an unscaled
//! diagonal makes off-diagonal pivots common: these are the conditions under
//! which pruning against a column that lost rows of its reach would make
//! the search miss rows.  A missed row leaves a stale value in the kernel's
//! work vector (a debug assertion checks that the vector is all zero after
//! every column) and gives a wrong solution, which the residual bound
//! catches in release builds too.

use msplit_dense::DenseLu;
use msplit_direct::gplu::ColumnOrdering;
use msplit_direct::{DirectError, SparseLu, SparseLuConfig};
use msplit_sparse::{CsrMatrix, TripletBuilder};
use proptest::prelude::*;

/// xorshift64* stream for the matrix entries.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// An `n × n` matrix whose entries are nonzero integers in `-3..=3`, each
/// present with probability `percent / 100`.
fn small_integer_matrix(n: usize, percent: u64, seed: u64) -> CsrMatrix {
    let mut rng = Stream(seed | 1);
    let mut t = TripletBuilder::square(n);
    for i in 0..n {
        for j in 0..n {
            if rng.next() % 100 < percent {
                let v = (rng.next() % 6) as i64 - 3;
                let v = if v >= 0 { v + 1 } else { v };
                t.push(i, j, v as f64).unwrap();
            }
        }
    }
    t.build_csr()
}

fn inf_norm(v: &[f64]) -> f64 {
    v.iter().fold(0.0f64, |m, x| m.max(x.abs()))
}

fn matrix_inf_norm(a: &CsrMatrix) -> f64 {
    (0..a.rows())
        .map(|i| a.row(i).map(|(_, v)| v.abs()).sum::<f64>())
        .fold(0.0f64, f64::max)
}

/// `‖b − A x‖∞ / (‖A‖∞ ‖x‖∞ + ‖b‖∞)`.
fn relative_residual(a: &CsrMatrix, b: &[f64], x: &[f64]) -> f64 {
    let ax = a.spmv(x).unwrap();
    let r: Vec<f64> = b.iter().zip(&ax).map(|(bi, axi)| bi - axi).collect();
    inf_norm(&r) / (matrix_inf_norm(a) * inf_norm(x) + inf_norm(b))
}

/// `κ∞(A)`, from the dense LU (infinite when that reports a singular pivot).
fn condition(a: &CsrMatrix) -> f64 {
    let n = a.rows();
    let Ok(lu) = DenseLu::factorize(&a.to_dense()) else {
        return f64::INFINITY;
    };
    let mut inverse_row_sums = vec![0.0f64; n];
    for j in 0..n {
        let mut e = vec![0.0; n];
        e[j] = 1.0;
        for (sum, v) in inverse_row_sums.iter_mut().zip(lu.solve(&e).unwrap()) {
            *sum += v.abs();
        }
    }
    matrix_inf_norm(a) * inf_norm(&inverse_row_sums)
}

const ORDERINGS: [ColumnOrdering; 3] = [
    ColumnOrdering::Natural,
    ColumnOrdering::ReverseCuthillMcKee,
    ColumnOrdering::MinimumDegree,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn pruned_factorization_solves_small_integer_matrices(
        shape in (2usize..40, 8u64..45),
        seed in 0u64..u64::MAX,
        pivot_threshold in 0.1f64..1.0,
        options in (0usize..3, 0usize..2),
    ) {
        let (n, percent) = shape;
        let (ordering, drop) = options;
        let drop_tolerance = [0.0, 1e-3][drop];
        let a = small_integer_matrix(n, percent, seed);
        // A factorization that drops entries is solved with iterative
        // refinement, which converges only while `drop_tolerance · κ(A)`
        // stays small.
        prop_assume!(drop_tolerance == 0.0 || condition(&a) * drop_tolerance <= 1.0);
        let config = SparseLuConfig {
            ordering: ORDERINGS[ordering],
            pivot_threshold,
            drop_tolerance,
            ..Default::default()
        };
        let lu = match SparseLu::factorize_with(&a, &config) {
            Err(DirectError::Singular { .. }) => {
                prop_assume!(false);
                unreachable!()
            }
            other => other.unwrap(),
        };
        let b: Vec<f64> = (0..n).map(|i| (i % 5) as f64 - 2.0).collect();
        let x = if drop_tolerance == 0.0 {
            lu.solve(&b).unwrap()
        } else {
            lu.solve_refined(&a, &b, 100).unwrap()
        };
        let res = relative_residual(&a, &b, &x);
        prop_assert!(
            res <= 1e-10,
            "residual {res:e} for n={n}, {percent}% dense, seed {seed}, {config:?}"
        );
    }
}
