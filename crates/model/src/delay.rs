//! Delay matrices: inter-agent (`D`, `L×L`) and agent-to-user (`H`, `L×U`).
//!
//! The paper assumes the provider "obtains agent-to-user and inter-agent
//! delays through active measurements"; here they are plain matrices of
//! one-way propagation delays in milliseconds, produced either by the
//! synthetic geography model in `vc-net` or hand-entered measurement data
//! (e.g. the Fig. 2 scenario).

use crate::{AgentId, ModelError, UserId};

/// Dense row-major `rows×cols` matrix of `f64`.
///
/// Rows are stored with a physical stride of `col_cap ≥ cols` columns:
/// [`push_columns`](Self::push_columns) fills the spare capacity in
/// place and doubles it on overflow, so appending a column is `O(rows)`
/// amortized instead of a full `O(rows×cols)` restride — the primitive
/// behind sublinear open-world growth. Padding cells are never part of
/// the matrix: equality, extrema, and validation see logical cells only.
#[derive(Debug, Clone)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    /// Physical row stride (`≥ cols`); `data.len() == rows * col_cap`.
    col_cap: usize,
    data: Vec<f64>,
}

impl PartialEq for Matrix {
    fn eq(&self, other: &Self) -> bool {
        // Compare logical cells only — two equal matrices may carry
        // different spare column capacity.
        self.rows == other.rows
            && self.cols == other.cols
            && (0..self.rows).all(|r| self.row(r) == other.row(r))
    }
}

impl Matrix {
    /// Creates a matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Self {
            rows,
            cols,
            col_cap: cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates a matrix from row-major data.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::DimensionMismatch`] if `data.len() != rows*cols`.
    pub fn from_rows(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self, ModelError> {
        if data.len() != rows * cols {
            return Err(ModelError::DimensionMismatch {
                expected: rows * cols,
                actual: data.len(),
            });
        }
        Ok(Self {
            rows,
            cols,
            col_cap: cols,
            data,
        })
    }

    /// Creates a matrix by tabulating `f(row, col)`.
    pub fn tabulate(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self {
            rows,
            cols,
            col_cap: cols,
            data,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Value at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn at(&self, row: usize, col: usize) -> f64 {
        assert!(
            row < self.rows && col < self.cols,
            "matrix index out of bounds"
        );
        self.data[row * self.col_cap + col]
    }

    /// Sets the value at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: f64) {
        assert!(
            row < self.rows && col < self.cols,
            "matrix index out of bounds"
        );
        self.data[row * self.col_cap + col] = value;
    }

    /// Borrow of one row.
    pub fn row(&self, row: usize) -> &[f64] {
        &self.data[row * self.col_cap..row * self.col_cap + self.cols]
    }

    /// Minimum over all entries (NaN-free input assumed).
    pub fn min(&self) -> f64 {
        (0..self.rows)
            .flat_map(|r| self.row(r))
            .copied()
            .fold(f64::INFINITY, f64::min)
    }

    /// Maximum over all entries (NaN-free input assumed).
    pub fn max(&self) -> f64 {
        (0..self.rows)
            .flat_map(|r| self.row(r))
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Whether all entries are finite and non-negative.
    pub fn is_nonnegative(&self) -> bool {
        (0..self.rows)
            .flat_map(|r| self.row(r))
            .all(|v| v.is_finite() && *v >= 0.0)
    }

    /// Appends `columns.len()` new columns: `columns[j][r]` becomes the
    /// value at `(r, old_cols + j)`. Existing entries keep their values
    /// (and, semantically, their indices) — the open-world growth
    /// primitive. Columns land in the spare per-row capacity when it
    /// suffices; otherwise capacity at least doubles and the matrix
    /// restrides once, so appending is `O(rows)` amortized per column.
    ///
    /// # Panics
    ///
    /// Panics if any column's length differs from the row count.
    pub fn push_columns(&mut self, columns: &[&[f64]]) {
        if columns.is_empty() {
            return;
        }
        for col in columns {
            assert_eq!(col.len(), self.rows, "column length must equal row count");
        }
        let new_cols = self.cols + columns.len();
        if new_cols > self.col_cap {
            let new_cap = new_cols.max(self.col_cap * 2).max(4);
            let mut data = vec![0.0; self.rows * new_cap];
            for r in 0..self.rows {
                data[r * new_cap..r * new_cap + self.cols]
                    .copy_from_slice(&self.data[r * self.col_cap..r * self.col_cap + self.cols]);
            }
            self.data = data;
            self.col_cap = new_cap;
        }
        for r in 0..self.rows {
            for (j, col) in columns.iter().enumerate() {
                self.data[r * self.col_cap + self.cols + j] = col[r];
            }
        }
        self.cols = new_cols;
    }

    /// Appends one row (`row.len()` must equal the column count) in
    /// `O(col_cap)` — the agent-axis twin of
    /// [`push_columns`](Self::push_columns).
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != cols`.
    pub fn push_row(&mut self, row: &[f64]) {
        assert_eq!(row.len(), self.cols, "row length must equal column count");
        let start = self.rows * self.col_cap;
        self.data.resize(start + self.col_cap, 0.0);
        self.data[start..start + self.cols].copy_from_slice(row);
        self.rows += 1;
    }
}

/// The pair of delay matrices the optimizer consumes.
///
/// `inter_agent` is `D = [D_lk]` (`L×L`, one-way ms, zero diagonal);
/// `agent_user` is `H = [H_lu]` (`L×U`, one-way ms).
#[derive(Debug, Clone, PartialEq)]
pub struct DelayMatrices {
    inter_agent: Matrix,
    agent_user: Matrix,
}

impl DelayMatrices {
    /// Creates and validates the matrix pair.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidDelays`] if `D` is not square with a zero
    /// diagonal, if the row counts disagree, or if any entry is negative or
    /// non-finite.
    pub fn new(inter_agent: Matrix, agent_user: Matrix) -> Result<Self, ModelError> {
        if inter_agent.rows() != inter_agent.cols() {
            return Err(ModelError::InvalidDelays(format!(
                "inter-agent matrix must be square, got {}×{}",
                inter_agent.rows(),
                inter_agent.cols()
            )));
        }
        if inter_agent.rows() != agent_user.rows() {
            return Err(ModelError::InvalidDelays(format!(
                "matrix agent counts disagree: D has {}, H has {}",
                inter_agent.rows(),
                agent_user.rows()
            )));
        }
        if !inter_agent.is_nonnegative() || !agent_user.is_nonnegative() {
            return Err(ModelError::InvalidDelays(
                "delays must be finite and non-negative".into(),
            ));
        }
        for l in 0..inter_agent.rows() {
            if inter_agent.at(l, l) != 0.0 {
                return Err(ModelError::InvalidDelays(format!(
                    "inter-agent diagonal must be zero, D[{l}][{l}] = {}",
                    inter_agent.at(l, l)
                )));
            }
        }
        Ok(Self {
            inter_agent,
            agent_user,
        })
    }

    /// Number of agents `L` covered by the matrices.
    pub fn num_agents(&self) -> usize {
        self.inter_agent.rows()
    }

    /// Number of users `U` covered by the matrices.
    pub fn num_users(&self) -> usize {
        self.agent_user.cols()
    }

    /// `D_lk`: one-way delay between agents `l` and `k` in ms.
    #[inline]
    pub fn inter_agent_ms(&self, l: AgentId, k: AgentId) -> f64 {
        self.inter_agent.at(l.index(), k.index())
    }

    /// `H_lu`: one-way delay between agent `l` and user `u` in ms.
    #[inline]
    pub fn agent_user_ms(&self, l: AgentId, u: UserId) -> f64 {
        self.agent_user.at(l.index(), u.index())
    }

    /// The raw inter-agent matrix `D`.
    pub fn inter_agent(&self) -> &Matrix {
        &self.inter_agent
    }

    /// The raw agent-to-user matrix `H`.
    pub fn agent_user(&self) -> &Matrix {
        &self.agent_user
    }

    /// Agents sorted by proximity to user `u` (nearest first), the primitive
    /// behind both the Nrst baseline and AgRank's potential-agent lists.
    pub fn agents_by_proximity(&self, u: UserId) -> Vec<AgentId> {
        let mut agents = Vec::new();
        self.agents_by_proximity_into(u, &mut agents);
        agents
    }

    /// [`agents_by_proximity`](Self::agents_by_proximity) into a
    /// caller-owned buffer (cleared first) — the admission hot path
    /// ranks every arriving user and reuses one buffer. `(delay, id)` is
    /// a total order over distinct agents, so the result does not depend
    /// on the sort algorithm.
    pub fn agents_by_proximity_into(&self, u: UserId, agents: &mut Vec<AgentId>) {
        agents.clear();
        agents.extend((0..self.num_agents()).map(AgentId::from));
        agents.sort_unstable_by(|a, b| self.proximity_order(u, *a, *b));
    }

    /// Nearer agent first, lower id on equal delay.
    fn proximity_order(&self, u: UserId, a: AgentId, b: AgentId) -> std::cmp::Ordering {
        self.agent_user_ms(a, u)
            .partial_cmp(&self.agent_user_ms(b, u))
            .expect("delays are non-NaN")
            .then(a.cmp(&b))
    }

    /// The nearest agent to user `u` (the head of
    /// [`agents_by_proximity`](Self::agents_by_proximity), found in one
    /// pass).
    ///
    /// # Panics
    ///
    /// Panics if there are no agents.
    pub fn nearest_agent(&self, u: UserId) -> AgentId {
        (0..self.num_agents())
            .map(AgentId::from)
            .min_by(|a, b| self.proximity_order(u, *a, *b))
            .expect("at least one agent")
    }

    /// Appends one agent to both matrices: `D` gains a symmetric row
    /// and column built from `inter_ms` (one-way ms to each *existing*
    /// agent, agent order; the new diagonal entry is zero) and `H`
    /// gains a row of `user_ms` (one-way ms to each existing user, user
    /// order). Existing entries keep their values and indices — the
    /// agent-axis open-world growth primitive.
    ///
    /// # Errors
    ///
    /// [`ModelError::InvalidDelays`] if either slice has the wrong
    /// length or a negative/non-finite entry; the matrices are
    /// unchanged on error.
    pub fn push_agent(&mut self, inter_ms: &[f64], user_ms: &[f64]) -> Result<(), ModelError> {
        if inter_ms.len() != self.num_agents() {
            return Err(ModelError::InvalidDelays(format!(
                "new agent's inter-agent delays cover {} agents, matrices have {}",
                inter_ms.len(),
                self.num_agents()
            )));
        }
        if user_ms.len() != self.num_users() {
            return Err(ModelError::InvalidDelays(format!(
                "new agent's user delays cover {} users, matrices have {}",
                user_ms.len(),
                self.num_users()
            )));
        }
        if !inter_ms
            .iter()
            .chain(user_ms.iter())
            .all(|v| v.is_finite() && *v >= 0.0)
        {
            return Err(ModelError::InvalidDelays(
                "new agent delays must be finite and non-negative".into(),
            ));
        }
        self.inter_agent.push_columns(&[inter_ms]);
        let mut inter_row = inter_ms.to_vec();
        inter_row.push(0.0); // zero self-delay diagonal
        self.inter_agent.push_row(&inter_row);
        self.agent_user.push_row(user_ms);
        Ok(())
    }

    /// Appends one `H` column per new user (each `columns[j]` holds the
    /// one-way agent-to-user delays in ms, agent order). `D` is
    /// untouched — grow the agent pool via
    /// [`push_agent`](Self::push_agent).
    ///
    /// # Errors
    ///
    /// [`ModelError::InvalidDelays`] if any column has the wrong length
    /// or a negative/non-finite entry; the matrices are unchanged on
    /// error.
    pub fn push_user_columns(&mut self, columns: &[&[f64]]) -> Result<(), ModelError> {
        for col in columns {
            if col.len() != self.num_agents() {
                return Err(ModelError::InvalidDelays(format!(
                    "new user column covers {} agents, matrices have {}",
                    col.len(),
                    self.num_agents()
                )));
            }
            if !col.iter().all(|v| v.is_finite() && *v >= 0.0) {
                return Err(ModelError::InvalidDelays(
                    "new user delays must be finite and non-negative".into(),
                ));
            }
        }
        self.agent_user.push_columns(columns);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple() -> DelayMatrices {
        // D: 2 agents; H: 2 agents × 3 users.
        let d = Matrix::from_rows(2, 2, vec![0.0, 50.0, 50.0, 0.0]).unwrap();
        let h = Matrix::from_rows(2, 3, vec![10.0, 20.0, 30.0, 25.0, 15.0, 5.0]).unwrap();
        DelayMatrices::new(d, h).unwrap()
    }

    #[test]
    fn matrix_indexing_round_trips() {
        let mut m = Matrix::filled(2, 3, 0.0);
        m.set(1, 2, 7.5);
        assert_eq!(m.at(1, 2), 7.5);
        assert_eq!(m.at(0, 0), 0.0);
        assert_eq!(m.row(1), &[0.0, 0.0, 7.5]);
        assert_eq!(m.min(), 0.0);
        assert_eq!(m.max(), 7.5);
    }

    #[test]
    fn from_rows_checks_dimensions() {
        assert!(Matrix::from_rows(2, 2, vec![0.0; 3]).is_err());
        assert!(Matrix::from_rows(2, 2, vec![0.0; 4]).is_ok());
    }

    #[test]
    fn tabulate_fills_by_function() {
        let m = Matrix::tabulate(3, 3, |r, c| (r * 10 + c) as f64);
        assert_eq!(m.at(2, 1), 21.0);
    }

    #[test]
    fn delay_matrices_accessors() {
        let d = simple();
        assert_eq!(d.num_agents(), 2);
        assert_eq!(d.num_users(), 3);
        assert_eq!(d.inter_agent_ms(AgentId::new(0), AgentId::new(1)), 50.0);
        assert_eq!(d.agent_user_ms(AgentId::new(1), UserId::new(2)), 5.0);
    }

    #[test]
    fn rejects_nonzero_diagonal() {
        let d = Matrix::from_rows(2, 2, vec![1.0, 50.0, 50.0, 0.0]).unwrap();
        let h = Matrix::filled(2, 1, 0.0);
        assert!(matches!(
            DelayMatrices::new(d, h),
            Err(ModelError::InvalidDelays(_))
        ));
    }

    #[test]
    fn rejects_negative_delay() {
        let d = Matrix::from_rows(2, 2, vec![0.0, -3.0, 50.0, 0.0]).unwrap();
        let h = Matrix::filled(2, 1, 0.0);
        assert!(DelayMatrices::new(d, h).is_err());
    }

    #[test]
    fn rejects_disagreeing_agent_counts() {
        let d = Matrix::from_rows(2, 2, vec![0.0, 1.0, 1.0, 0.0]).unwrap();
        let h = Matrix::filled(3, 1, 0.0);
        assert!(DelayMatrices::new(d, h).is_err());
    }

    #[test]
    fn rejects_non_square_inter_agent() {
        let d = Matrix::filled(2, 3, 0.0);
        let h = Matrix::filled(2, 1, 0.0);
        assert!(DelayMatrices::new(d, h).is_err());
    }

    #[test]
    fn proximity_ordering() {
        let d = simple();
        // User 2: agent 1 is at 5 ms, agent 0 at 30 ms.
        assert_eq!(
            d.agents_by_proximity(UserId::new(2)),
            vec![AgentId::new(1), AgentId::new(0)]
        );
        assert_eq!(d.nearest_agent(UserId::new(0)), AgentId::new(0));
    }

    #[test]
    fn push_columns_matches_full_rebuild_through_capacity_growth() {
        let mut grown = Matrix::filled(3, 1, 1.0);
        for j in 0..9usize {
            let col: Vec<f64> = (0..3).map(|r| (r * 10 + j) as f64).collect();
            grown.push_columns(&[&col]);
        }
        let rebuilt = Matrix::tabulate(3, 10, |r, c| {
            if c == 0 {
                1.0
            } else {
                (r * 10 + (c - 1)) as f64
            }
        });
        assert_eq!(grown, rebuilt);
        assert_eq!(grown.row(1), rebuilt.row(1));
        assert_eq!(grown.max(), rebuilt.max());
    }

    #[test]
    fn push_row_appends_in_place() {
        let mut m = Matrix::from_rows(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        m.push_row(&[7.0, 8.0, 9.0]);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.row(2), &[7.0, 8.0, 9.0]);
        assert_eq!(m.at(0, 1), 2.0);
    }

    #[test]
    fn equality_ignores_spare_capacity() {
        let mut grown = Matrix::filled(2, 2, 0.5);
        let col = [0.25, 0.75];
        grown.push_columns(&[&col]);
        let flat = Matrix::from_rows(2, 3, vec![0.5, 0.5, 0.25, 0.5, 0.5, 0.75]).unwrap();
        assert_eq!(grown, flat);
        assert_eq!(flat, grown);
    }

    #[test]
    fn push_agent_extends_both_matrices() {
        let mut d = simple();
        d.push_agent(&[40.0, 60.0], &[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(d.num_agents(), 3);
        assert_eq!(d.num_users(), 3);
        let l2 = AgentId::new(2);
        assert_eq!(d.inter_agent_ms(AgentId::new(0), l2), 40.0);
        assert_eq!(d.inter_agent_ms(l2, AgentId::new(1)), 60.0);
        assert_eq!(d.inter_agent_ms(l2, l2), 0.0);
        assert_eq!(d.agent_user_ms(l2, UserId::new(1)), 2.0);
        // Old entries untouched.
        assert_eq!(d.inter_agent_ms(AgentId::new(0), AgentId::new(1)), 50.0);
        // Still a valid matrix pair (square, zero diagonal, symmetric).
        DelayMatrices::new(d.inter_agent().clone(), d.agent_user().clone()).unwrap();
    }

    #[test]
    fn push_agent_is_atomic_on_error() {
        let mut d = simple();
        let before = d.clone();
        assert!(d.push_agent(&[40.0], &[1.0, 2.0, 3.0]).is_err()); // wrong D len
        assert!(d.push_agent(&[40.0, 60.0], &[1.0]).is_err()); // wrong H len
        assert!(d.push_agent(&[40.0, -1.0], &[1.0, 2.0, 3.0]).is_err()); // negative
        assert_eq!(d, before);
    }

    #[test]
    fn proximity_tie_breaks_by_id() {
        let d = Matrix::from_rows(2, 2, vec![0.0, 1.0, 1.0, 0.0]).unwrap();
        let h = Matrix::from_rows(2, 1, vec![10.0, 10.0]).unwrap();
        let dm = DelayMatrices::new(d, h).unwrap();
        assert_eq!(dm.nearest_agent(UserId::new(0)), AgentId::new(0));
    }
}
