//! Clause storage.
//!
//! A [`ClauseDb`] keeps one fixed-size header per clause and the literals
//! of *all* clauses back to back in a single `Vec<Lit>` — the arena. A
//! [`CRef`] indexes the header table and stays valid for the life of the
//! database: deleting a clause flags its header, and [`ClauseDb::compact`]
//! then squeezes the deleted clauses' literals out of the arena and
//! repoints the surviving headers, so watch lists and reasons never need
//! rewriting. Propagation and conflict analysis touch a clause through one
//! header load and one contiguous slice instead of a heap allocation per
//! clause.
//!
//! Learnt clauses carry an activity score and an LBD (literal block
//! distance) used by the clause-database reduction policy.

use crate::types::Lit;

/// Reference to a clause inside a [`ClauseDb`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct CRef(pub(crate) u32);

impl CRef {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Everything about a clause but its literals.
#[derive(Clone, Copy, Debug)]
struct Header {
    /// Offset of the first literal in the arena.
    start: u32,
    len: u32,
    lbd: u32,
    learnt: bool,
    deleted: bool,
    activity: f64,
}

/// Arena of clauses.
#[derive(Default)]
pub struct ClauseDb {
    headers: Vec<Header>,
    /// The literals of every clause not yet compacted away, in `CRef`
    /// order.
    arena: Vec<Lit>,
    /// Number of literals across live (non-deleted) clauses.
    live_literals: usize,
}

impl ClauseDb {
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a clause and return its reference.
    pub fn push(&mut self, lits: &[Lit], learnt: bool) -> CRef {
        let cref = CRef(self.headers.len() as u32);
        let start = u32::try_from(self.arena.len()).expect("clause arena fits 32-bit offsets");
        self.headers.push(Header {
            start,
            len: lits.len() as u32,
            lbd: 0,
            learnt,
            deleted: false,
            activity: 0.0,
        });
        self.arena.extend_from_slice(lits);
        self.live_literals += lits.len();
        cref
    }

    /// Mark a clause deleted. Watch lists drop deleted clauses lazily; the
    /// literals stay in the arena until the next [`ClauseDb::compact`].
    pub fn delete(&mut self, cref: CRef) {
        let h = &mut self.headers[cref.index()];
        if !h.deleted {
            h.deleted = true;
            self.live_literals -= h.len as usize;
        }
    }

    /// Squeeze the literals of deleted clauses out of the arena. Headers
    /// (and therefore every [`CRef`]) stay where they are; a deleted
    /// clause keeps its flag and loses its literals.
    pub fn compact(&mut self) {
        if self.arena.len() == self.live_literals {
            return;
        }
        let mut write = 0usize;
        for h in &mut self.headers {
            let (start, len) = (h.start as usize, h.len as usize);
            if h.deleted {
                h.len = 0;
                continue;
            }
            // Headers are in arena order, so `write` never passes `start`.
            self.arena.copy_within(start..start + len, write);
            h.start = write as u32;
            write += len;
        }
        self.arena.truncate(write);
    }

    /// The literals of a clause. The first two are the watched literals.
    /// Empty for a deleted clause after compaction.
    #[inline]
    pub fn lits(&self, cref: CRef) -> &[Lit] {
        let h = &self.headers[cref.index()];
        &self.arena[h.start as usize..(h.start + h.len) as usize]
    }

    #[inline]
    pub fn lits_mut(&mut self, cref: CRef) -> &mut [Lit] {
        let h = &self.headers[cref.index()];
        &mut self.arena[h.start as usize..(h.start + h.len) as usize]
    }

    /// The arena positions of a clause's literals, for walking them with
    /// [`ClauseDb::lit_at`] while the rest of the solver is being mutated.
    #[inline]
    pub fn span(&self, cref: CRef) -> std::ops::Range<usize> {
        let h = &self.headers[cref.index()];
        h.start as usize..(h.start + h.len) as usize
    }

    /// The literal at an arena position (see [`ClauseDb::span`]).
    #[inline]
    pub fn lit_at(&self, position: usize) -> Lit {
        self.arena[position]
    }

    /// `true` if this clause was learnt during conflict analysis.
    #[inline]
    pub fn is_learnt(&self, cref: CRef) -> bool {
        self.headers[cref.index()].learnt
    }

    /// `true` if this clause has been removed by database reduction.
    #[inline]
    pub fn is_deleted(&self, cref: CRef) -> bool {
        self.headers[cref.index()].deleted
    }

    /// Literal block distance assigned when the clause was learnt.
    #[inline]
    pub fn lbd(&self, cref: CRef) -> u32 {
        self.headers[cref.index()].lbd
    }

    pub fn set_lbd(&mut self, cref: CRef, lbd: u32) {
        self.headers[cref.index()].lbd = lbd;
    }

    #[inline]
    pub fn activity(&self, cref: CRef) -> f64 {
        self.headers[cref.index()].activity
    }

    #[inline]
    pub fn activity_mut(&mut self, cref: CRef) -> &mut f64 {
        &mut self.headers[cref.index()].activity
    }

    /// Multiply the activity of every live learnt clause by `factor`.
    pub fn rescale_learnt_activities(&mut self, factor: f64) {
        for h in &mut self.headers {
            if h.learnt && !h.deleted {
                h.activity *= factor;
            }
        }
    }

    /// Total number of clauses ever added (including deleted ones).
    pub fn len(&self) -> usize {
        self.headers.len()
    }

    /// `true` if no clause was ever added.
    pub fn is_empty(&self) -> bool {
        self.headers.is_empty()
    }

    /// Number of literals in live clauses.
    pub fn live_literals(&self) -> usize {
        self.live_literals
    }

    /// Number of literals the arena holds: [`ClauseDb::live_literals`]
    /// plus those of clauses deleted since the last compaction.
    pub fn arena_len(&self) -> usize {
        self.arena.len()
    }

    /// Iterate over references of all live learnt clauses.
    pub fn learnt_refs(&self) -> impl Iterator<Item = CRef> + '_ {
        self.headers
            .iter()
            .enumerate()
            .filter(|(_, h)| h.learnt && !h.deleted)
            .map(|(i, _)| CRef(i as u32))
    }

    /// Iterate over references of all live clauses.
    pub fn all_refs(&self) -> impl Iterator<Item = CRef> + '_ {
        self.headers
            .iter()
            .enumerate()
            .filter(|(_, h)| !h.deleted)
            .map(|(i, _)| CRef(i as u32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Var;

    fn lit(i: usize) -> Lit {
        Var::from_index(i).positive()
    }

    #[test]
    fn push_get_delete() {
        let mut db = ClauseDb::new();
        let c0 = db.push(&[lit(0), lit(1)], false);
        let c1 = db.push(&[lit(2), lit(3), lit(4)], true);
        assert_eq!(db.len(), 2);
        assert_eq!(db.live_literals(), 5);
        assert_eq!(db.lits(c0).len(), 2);
        assert!(db.is_learnt(c1));
        db.delete(c1);
        assert!(db.is_deleted(c1));
        assert_eq!(db.live_literals(), 2);
        // Deleting twice is a no-op.
        db.delete(c1);
        assert_eq!(db.live_literals(), 2);
    }

    #[test]
    fn learnt_refs_filters() {
        let mut db = ClauseDb::new();
        db.push(&[lit(0)], false);
        let l1 = db.push(&[lit(1)], true);
        let l2 = db.push(&[lit(2)], true);
        db.delete(l2);
        let learnt: Vec<_> = db.learnt_refs().collect();
        assert_eq!(learnt, vec![l1]);
        assert_eq!(db.all_refs().count(), 2);
    }

    #[test]
    fn compaction_frees_deleted_literals_and_keeps_references() {
        let mut db = ClauseDb::new();
        let clauses: Vec<Vec<Lit>> = (0..6)
            .map(|i| (0..=i + 1).map(|k| lit(10 * i + k)).collect())
            .collect();
        let refs: Vec<CRef> = clauses.iter().map(|c| db.push(c, true)).collect();
        db.lits_mut(refs[3]).swap(0, 2);
        let swapped = db.lits(refs[3]).to_vec();
        for &r in &[refs[0], refs[2], refs[5]] {
            db.delete(r);
        }
        assert!(db.arena_len() > db.live_literals(), "deleting only flags");
        db.compact();
        assert_eq!(db.arena_len(), db.live_literals());
        assert_eq!(db.lits(refs[1]), &clauses[1][..]);
        assert_eq!(db.lits(refs[3]), &swapped[..]);
        assert_eq!(db.lits(refs[4]), &clauses[4][..]);
        assert!(db.is_deleted(refs[2]) && db.lits(refs[2]).is_empty());
        // The database keeps growing behind the compacted prefix.
        let late = db.push(&[lit(90), lit(91)], false);
        assert_eq!(db.lits(late), &[lit(90), lit(91)]);
        assert_eq!(db.lits(refs[4]), &clauses[4][..]);
        assert_eq!(db.arena_len(), db.live_literals());
    }
}
