//! A reduced ordered binary decision diagram (ROBDD) package with
//! complement edges, a cache-conscious struct-of-arrays node store, and
//! dynamic variable reordering by sifting.
//!
//! BDDs are the key intermediate representation of the POLIS software
//! synthesis flow (Balarin et al., Section II-B): the CFSM reactive function
//! is represented by the BDD of its characteristic function, optimized by
//! Rudell's sifting algorithm under the constraint that *no output variable
//! sifts above any input in its support*, and then translated one-to-one into
//! an s-graph (Section III-B).
//!
//! The package provides:
//!
//! * a [`Bdd`] manager with hash-consed nodes, an ITE operation cache, and
//!   the usual Boolean operations ([`Bdd::and`], [`Bdd::or`], [`Bdd::not`],
//!   [`Bdd::xor`], [`Bdd::ite`], ...);
//! * restriction ([`Bdd::restrict`]) and smoothing, i.e. existential
//!   quantification of a set of variables in one pass
//!   ([`Bdd::exists_cube`], with its dual [`Bdd::forall_cube`]), used to
//!   build characteristic functions (Section II-C);
//! * a relational-product kernel for symbolic reachability: combined
//!   conjoin-and-quantify ([`Bdd::and_exists`], with its own dedicated
//!   cache), the generalized cofactor ([`Bdd::constrain`]) and set
//!   difference ([`Bdd::and_not`]), plus one fused recursion per image
//!   step that never builds the throwaway intermediate: the set image
//!   ([`Bdd::exists_set`]), the renamed relational product
//!   ([`Bdd::and_exists_rename`], the same recursion as `and_exists`
//!   with each result renamed) and the union minus a reached set
//!   ([`Bdd::or_and_not`]), and level-wise
//!   access ([`Bdd::node_level`], [`Bdd::cofactors_at_level`],
//!   [`Bdd::node_at_level`]) for recursions written outside the kernel;
//! * mark-and-sweep garbage collection ([`Bdd::gc`]);
//! * in-place adjacent level swap and constrained sifting
//!   ([`Bdd::sift`], see the [`reorder`] module);
//! * multi-bit encodings of bounded-integer variables ([`encode`]).
//!
//! # Node layout and complement edges
//!
//! A [`NodeRef`] is a 4-byte handle packing an arena index with a
//! **complement bit** (Brace–Rudell–Bryant, as in CUDD): `ref = idx << 1 | c`
//! denotes the function at `idx`, negated iff `c` is set. There is a single
//! terminal (the constant **1** at index 0); `FALSE` is its complemented
//! handle. Canonical form forbids complemented *then* (hi) edges — [`mk`]
//! rewrites `(v, lo, ¬h)` into `¬(v, ¬lo, h)` — so a function and its
//! negation share every node and [`Bdd::not`] is an O(1) bit flip that
//! allocates nothing. `and`/`or`/`xor`/`iff`/`implies` all collapse onto one
//! normalized ITE, roughly halving live node count and doubling effective
//! operation-cache capacity.
//!
//! The arena itself is a **struct-of-arrays**: parallel `var`/`lo`/`hi`
//! columns ([`NODE_BYTES`] = 12 bytes per node) instead of an
//! array-of-structs, so traversals that only touch one field (level checks,
//! marking, refcounts) stay within one dense column. The free-list is
//! threaded through the `lo` column — a freed slot stores the next free
//! index where its low edge used to be — so reclamation needs no side
//! allocation at all.
//!
//! # Storage layer
//!
//! The kernel uses CUDD-style storage rather than the standard-library maps:
//!
//! * per-variable **open-addressing unique tables** (power-of-two capacity,
//!   linear probing, splitmix64-mixed keys, tombstone-free backward-shift
//!   deletion) for hash-consing;
//! * a **direct-mapped lossy operation cache** shared by ITE, the
//!   restriction/quantification memos, `constrain`, `rename`, `exists_set`
//!   and `or_and_not`, plus a second dedicated cache for the relational
//!   products ([`Bdd::and_exists`], [`Bdd::and_exists_rename`]); both
//!   invalidated in O(1) by
//!   bumping a generation counter (no rehash on reorder). Each operator
//!   memoizes in exactly one of these caches and nowhere else;
//! * a reusable **stamp buffer** for traversals (`size`, `support`, `gc`)
//!   so marking needs no per-call set allocation;
//! * **reference-count node reclamation** during sifting, so adjacent level
//!   swaps recycle dead slots through the free-list instead of growing the
//!   arena monotonically.
//!
//! Determinism: node indices depend only on the sequence of operations
//! performed on the manager — there is no randomized hashing and no
//! iteration over randomized containers — so a fixed call sequence yields
//! bit-identical results across runs and platforms.
//!
//! [`mk`]: Bdd::ite
//!
//! # Examples
//!
//! ```
//! use polis_bdd::Bdd;
//!
//! let mut bdd = Bdd::new();
//! let x = bdd.new_var("x");
//! let y = bdd.new_var("y");
//! let fx = bdd.var(x);
//! let fy = bdd.var(y);
//! let f = bdd.and(fx, fy);
//! assert!(bdd.eval(f, |v| v == x || v == y));
//! assert!(!bdd.eval(f, |v| v == x));
//! ```

pub mod encode;
pub mod reorder;

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;

/// A BDD variable, identified by creation index (stable across reordering).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(pub u32);

impl Var {
    /// The variable's creation index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A handle to a BDD function: an arena index in the upper 31 bits and a
/// complement bit in bit 0 (`idx << 1 | c`). Two handles are equal iff they
/// denote the same function; a handle and its complement share the same
/// arena node.
///
/// Handles stay valid across [`Bdd::sift`] (reordering rewrites nodes in
/// place) and across [`Bdd::gc`] *if* the handle was reachable from the roots
/// passed to `gc`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeRef(u32);

/// Bytes of node payload per arena slot across the `var`/`lo`/`hi` columns.
pub const NODE_BYTES: usize = 4 + 2 * std::mem::size_of::<NodeRef>();

// The whole point of the packed handle: it must stay a single machine word
// half so unique-table slots and cache keys stay cache-line dense.
const _: () = assert!(std::mem::size_of::<NodeRef>() == 4);
const _: () = assert!(NODE_BYTES == 12);

impl NodeRef {
    /// The constant true function: the regular handle of the one terminal.
    pub const TRUE: NodeRef = NodeRef(0);
    /// The constant false function: the complemented handle of the terminal.
    pub const FALSE: NodeRef = NodeRef(1);

    /// `true` if this is a handle of the terminal node (constant 0 or 1).
    pub fn is_terminal(self) -> bool {
        self.0 <= 1
    }

    /// `true` if this is the true constant.
    pub fn is_true(self) -> bool {
        self == NodeRef::TRUE
    }

    /// `true` if this is the false constant.
    pub fn is_false(self) -> bool {
        self == NodeRef::FALSE
    }

    /// The handle as a dense index (`2 × arena index + complement bit`),
    /// distinct for a function and its complement: a key for side tables
    /// indexed by handle.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The arena index (shared by a handle and its complement).
    #[inline]
    fn idx(self) -> usize {
        (self.0 >> 1) as usize
    }

    /// The complemented handle (`¬f`). O(1), allocates nothing.
    #[inline]
    fn complement(self) -> NodeRef {
        NodeRef(self.0 ^ 1)
    }

    /// The regular (complement bit cleared) handle of the same node.
    #[inline]
    fn regular(self) -> NodeRef {
        NodeRef(self.0 & !1)
    }

    /// The complement bit (0 or 1).
    #[inline]
    fn parity(self) -> u32 {
        self.0 & 1
    }

    /// This handle with its complement bit xor-ed by `p` (0 or 1).
    #[inline]
    fn xor_parity(self, p: u32) -> NodeRef {
        NodeRef(self.0 ^ p)
    }
}

const TERMINAL_VAR: u32 = u32::MAX;
/// Var-column sentinel for slots on the free-list (never a declared var:
/// `TERMINAL_VAR` caps the space and declaration would OOM long before).
const FREE_VAR: u32 = u32::MAX - 1;
/// Level assigned to terminals: below every variable.
const TERMINAL_LEVEL: u32 = u32::MAX;
/// Free-list terminator (an arena index, not a handle).
const NO_FREE: u32 = u32::MAX;

/// Sentinel marking a vacant unique-table or cache slot. Never a real node:
/// the arena is indexed by 31-bit handles and would overflow memory long
/// before reaching `u32::MAX / 2` entries.
const EMPTY: NodeRef = NodeRef(u32::MAX);

/// The splitmix64 finalizer, mirroring `polis-core::random`'s mixer
/// (inlined here: `polis-core` depends on this crate, so it cannot be a
/// runtime dependency). Used to spread unique-table and cache keys.
#[inline]
fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

// ---------------------------------------------------------------------------
// Open-addressing unique table
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
struct UniqueSlot {
    lo: NodeRef,
    hi: NodeRef,
    /// `EMPTY` marks a vacant slot.
    node: NodeRef,
}

const VACANT: UniqueSlot = UniqueSlot {
    lo: EMPTY,
    hi: EMPTY,
    node: EMPTY,
};

/// One variable's hash-consing table: open addressing with linear probing
/// over a power-of-two slot array. Keys are `(lo, hi)` with `hi` always a
/// regular edge (canonical form), values are regular node handles. Deletion
/// is tombstone-free (backward shift), so long-lived managers never
/// accumulate probe-chain garbage — important because sifting removes and
/// re-inserts entries constantly.
#[derive(Debug, Clone)]
pub(crate) struct UniqueTable {
    slots: Vec<UniqueSlot>,
    len: usize,
    /// Probe counters feeding [`BddStats`].
    lookups: u64,
    probes: u64,
}

impl UniqueTable {
    fn new() -> UniqueTable {
        UniqueTable {
            slots: Vec::new(),
            len: 0,
            lookups: 0,
            probes: 0,
        }
    }

    #[inline]
    fn hash(lo: NodeRef, hi: NodeRef) -> u64 {
        mix64(((lo.0 as u64) << 32) | hi.0 as u64)
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Looks up the node for `(lo, hi)`, counting probes.
    fn get(&mut self, lo: NodeRef, hi: NodeRef) -> Option<NodeRef> {
        self.lookups += 1;
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = (Self::hash(lo, hi) as usize) & mask;
        loop {
            self.probes += 1;
            let s = self.slots[i];
            if s.node == EMPTY {
                return None;
            }
            if s.lo == lo && s.hi == hi {
                return Some(s.node);
            }
            i = (i + 1) & mask;
        }
    }

    /// Inserts `(lo, hi) -> node`, returning the previous mapping if one
    /// existed (the reorder module asserts on that case).
    pub(crate) fn insert(&mut self, lo: NodeRef, hi: NodeRef, node: NodeRef) -> Option<NodeRef> {
        if self.slots.is_empty() || (self.len + 1) * 4 > self.slots.len() * 3 {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = (Self::hash(lo, hi) as usize) & mask;
        loop {
            let s = self.slots[i];
            if s.node == EMPTY {
                self.slots[i] = UniqueSlot { lo, hi, node };
                self.len += 1;
                return None;
            }
            if s.lo == lo && s.hi == hi {
                let prev = s.node;
                self.slots[i].node = node;
                return Some(prev);
            }
            i = (i + 1) & mask;
        }
    }

    fn grow(&mut self) {
        let new_cap = (self.slots.len() * 2).max(8);
        let old = std::mem::replace(&mut self.slots, vec![VACANT; new_cap]);
        self.len = 0;
        for s in old {
            if s.node != EMPTY {
                self.insert_rehash(s);
            }
        }
    }

    /// Insert during a rebuild: the key is known absent and load is low.
    fn insert_rehash(&mut self, s: UniqueSlot) {
        let mask = self.slots.len() - 1;
        let mut i = (Self::hash(s.lo, s.hi) as usize) & mask;
        while self.slots[i].node != EMPTY {
            i = (i + 1) & mask;
        }
        self.slots[i] = s;
        self.len += 1;
    }

    /// Removes `(lo, hi)` by backward-shift deletion: later entries of the
    /// probe chain slide into the hole, so no tombstones are left behind.
    pub(crate) fn remove(&mut self, lo: NodeRef, hi: NodeRef) -> Option<NodeRef> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = (Self::hash(lo, hi) as usize) & mask;
        loop {
            let s = self.slots[i];
            if s.node == EMPTY {
                return None;
            }
            if s.lo == lo && s.hi == hi {
                let removed = s.node;
                let mut j = i;
                loop {
                    j = (j + 1) & mask;
                    let t = self.slots[j];
                    if t.node == EMPTY {
                        break;
                    }
                    // `t` may fill the hole at `i` iff its home slot is not
                    // cyclically inside (i, j] — otherwise moving it would
                    // break its own probe chain.
                    let home = (Self::hash(t.lo, t.hi) as usize) & mask;
                    if (j.wrapping_sub(home) & mask) >= (j.wrapping_sub(i) & mask) {
                        self.slots[i] = t;
                        i = j;
                    }
                }
                self.slots[i] = VACANT;
                self.len -= 1;
                return Some(removed);
            }
            i = (i + 1) & mask;
        }
    }

    /// Keeps only entries whose node satisfies `keep`; dropped nodes are
    /// pushed onto `freed`. Rebuilds in place at the current capacity.
    fn retain(&mut self, mut keep: impl FnMut(NodeRef) -> bool, freed: &mut Vec<NodeRef>) {
        if self.len == 0 {
            return;
        }
        let mut survivors: Vec<UniqueSlot> = Vec::with_capacity(self.len);
        for s in &mut self.slots {
            if s.node != EMPTY {
                if keep(s.node) {
                    survivors.push(*s);
                } else {
                    freed.push(s.node);
                }
                *s = VACANT;
            }
        }
        self.len = 0;
        for s in survivors {
            self.insert_rehash(s);
        }
    }

    /// Moves every entry whose `(lo, hi)` satisfies `take` into `taken` as
    /// `(node, lo, hi)` and rehashes the rest at the same capacity, using
    /// `kept` as scratch. One pass over the slots replaces a
    /// probe-and-shift [`UniqueTable::remove`] per taken entry.
    fn drain_where(
        &mut self,
        mut take: impl FnMut(NodeRef, NodeRef) -> bool,
        taken: &mut Vec<(NodeRef, NodeRef, NodeRef)>,
        kept: &mut Vec<UniqueSlot>,
    ) {
        if self.len == 0 {
            return;
        }
        kept.clear();
        for s in &mut self.slots {
            if s.node != EMPTY {
                if take(s.lo, s.hi) {
                    taken.push((s.node, s.lo, s.hi));
                } else {
                    kept.push(*s);
                }
                *s = VACANT;
            }
        }
        self.len = 0;
        for &s in kept.iter() {
            self.insert_rehash(s);
        }
    }

    /// Iterates live entries as `(lo, hi, node)` in slot order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (NodeRef, NodeRef, NodeRef)> + '_ {
        self.slots
            .iter()
            .filter(|s| s.node != EMPTY)
            .map(|s| (s.lo, s.hi, s.node))
    }
}

// ---------------------------------------------------------------------------
// Direct-mapped lossy operation cache
// ---------------------------------------------------------------------------

const OP_ITE: u32 = 0;
const OP_RESTRICT0: u32 = 1;
const OP_RESTRICT1: u32 = 2;
const OP_EXISTS_CUBE: u32 = 5;
const OP_FORALL_CUBE: u32 = 6;
const OP_CONSTRAIN: u32 = 7;
/// Sole op code of the dedicated AndExists cache (kept distinct anyway so a
/// misrouted probe can never alias a shared-cache entry).
const OP_ANDEX: u32 = 8;
/// Cross-call rename memo entries in the shared cache; keyed by the node
/// and the interned substitution map (see [`Bdd::rename`]).
const OP_RENAME: u32 = 9;
/// [`Bdd::exists_set`] entries in the shared cache.
const OP_EXISTS_SET: u32 = 10;
/// [`Bdd::or_and_not`] entries in the shared cache.
const OP_OR_AND_NOT: u32 = 11;
/// Renamed relational products ([`Bdd::and_exists_rename`]) in the
/// dedicated AndExists cache key as `OP_ANDEX_RENAME + token` of their
/// interned rename map, so they never alias a plain `OP_ANDEX` entry or
/// a product under another map. Every other op code is below it.
const OP_ANDEX_RENAME: u32 = 16;

#[derive(Debug, Clone, Copy)]
struct OpSlot {
    op: u32,
    a: NodeRef,
    b: NodeRef,
    c: NodeRef,
    /// Entry is valid iff `gen == OpCache::gen`.
    gen: u32,
    result: NodeRef,
}

const OP_CACHE_MIN: usize = 1 << 8;
const OP_CACHE_MAX: usize = 1 << 20;

/// CUDD-style direct-mapped operation cache: one instance is shared by
/// ITE, the restriction/quantification memos, `constrain`, `rename`,
/// `exists_set` and `or_and_not`, another serves the relational products.
/// Collisions overwrite (lossy), so capacity is bounded; a generation
/// counter invalidates every entry in O(1) when the variable order changes.
#[derive(Debug, Clone)]
struct OpCache {
    slots: Vec<OpSlot>,
    /// Valid entries in the current generation.
    len: usize,
    gen: u32,
    evictions: u64,
}

impl OpCache {
    fn new() -> OpCache {
        OpCache {
            slots: Vec::new(),
            len: 0,
            gen: 0,
            evictions: 0,
        }
    }

    fn stale_slot(&self) -> OpSlot {
        OpSlot {
            op: u32::MAX,
            a: EMPTY,
            b: EMPTY,
            c: EMPTY,
            gen: self.gen.wrapping_sub(1),
            result: EMPTY,
        }
    }

    #[inline]
    fn index(&self, op: u32, a: NodeRef, b: NodeRef, c: NodeRef) -> usize {
        let h = mix64(((op as u64) << 32) | a.0 as u64) ^ mix64(((b.0 as u64) << 32) | c.0 as u64);
        (h as usize) & (self.slots.len() - 1)
    }

    fn lookup(&self, op: u32, a: NodeRef, b: NodeRef, c: NodeRef) -> Option<NodeRef> {
        if self.slots.is_empty() {
            return None;
        }
        let s = self.slots[self.index(op, a, b, c)];
        (s.gen == self.gen && s.op == op && s.a == a && s.b == b && s.c == c).then_some(s.result)
    }

    fn insert(&mut self, op: u32, a: NodeRef, b: NodeRef, c: NodeRef, result: NodeRef) {
        if self.slots.is_empty() {
            self.slots = vec![self.stale_slot(); OP_CACHE_MIN];
        } else if self.len * 4 >= self.slots.len() * 3 && self.slots.len() < OP_CACHE_MAX {
            self.grow();
        }
        let i = self.index(op, a, b, c);
        let s = &mut self.slots[i];
        if s.gen == self.gen {
            if s.op == op && s.a == a && s.b == b && s.c == c {
                s.result = result;
                return;
            }
            self.evictions += 1;
        } else {
            self.len += 1;
        }
        *s = OpSlot {
            op,
            a,
            b,
            c,
            gen: self.gen,
            result,
        };
    }

    /// Doubling rehash. Each valid entry moves to `h & new_mask`, which is
    /// collision-free: entries at distinct old indices stay distinct mod the
    /// old capacity.
    fn grow(&mut self) {
        let stale = self.stale_slot();
        let old = std::mem::take(&mut self.slots);
        self.slots = vec![stale; old.len() * 2];
        for s in old {
            if s.gen == self.gen {
                let i = self.index(s.op, s.a, s.b, s.c);
                self.slots[i] = s;
            }
        }
    }

    /// Drops every current-generation entry for which `alive` rejects any
    /// key or the result, keeping the rest valid. Used by [`Bdd::gc`] so a
    /// collection only costs the entries that actually referenced dead
    /// nodes — computations over surviving nodes stay cached. Key slots
    /// holding non-handle tokens (variable ids, rename-map signatures,
    /// `EMPTY` padding) have stable meaning, so a spurious `alive` verdict
    /// on them can only drop a valid entry, never keep a wrong one.
    fn retain(&mut self, mut alive: impl FnMut(NodeRef) -> bool) {
        let stale_gen = self.gen.wrapping_sub(1);
        for s in &mut self.slots {
            if s.gen == self.gen && !(alive(s.a) && alive(s.b) && alive(s.c) && alive(s.result)) {
                s.gen = stale_gen;
                self.len -= 1;
            }
        }
    }

    /// O(1) whole-cache invalidation by bumping the generation counter.
    fn invalidate(&mut self) {
        self.len = 0;
        if self.gen == u32::MAX {
            // Generation wrap: physically reset so ancient entries cannot
            // masquerade as generation-0 entries.
            self.gen = 0;
            let stale = self.stale_slot();
            for s in &mut self.slots {
                *s = stale;
            }
        } else {
            self.gen += 1;
        }
    }
}

// ---------------------------------------------------------------------------
// Reusable stamp buffer for traversals
// ---------------------------------------------------------------------------

/// A generation-stamped visited set over node indices: `mark` is O(1) and a
/// new traversal is started by bumping the generation, with no clearing and
/// no per-call allocation once the buffer is warm. Marking is by arena
/// index, so a handle and its complement mark the same physical node.
#[derive(Debug, Clone, Default)]
struct Marks {
    stamp: Vec<u32>,
    gen: u32,
}

impl Marks {
    /// Begins a fresh pass able to mark node indices `< n`.
    fn begin(&mut self, n: usize) {
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
        }
        if self.gen == u32::MAX {
            self.gen = 1;
            for s in &mut self.stamp {
                *s = 0;
            }
        } else {
            self.gen += 1;
        }
    }

    /// Marks `n`; returns `true` if it was not yet marked this pass.
    #[inline]
    fn mark(&mut self, n: NodeRef) -> bool {
        let s = &mut self.stamp[n.idx()];
        if *s == self.gen {
            false
        } else {
            *s = self.gen;
            true
        }
    }

    #[inline]
    fn is_marked(&self, n: NodeRef) -> bool {
        self.stamp[n.idx()] == self.gen
    }
}

// ---------------------------------------------------------------------------
// Manager
// ---------------------------------------------------------------------------

/// A reduced ordered BDD manager.
///
/// All functions created by one manager share its node store and variable
/// order. See the crate docs for an example.
#[derive(Debug, Clone)]
pub struct Bdd {
    /// Variable column: `var_col[i]` labels node `i` (`TERMINAL_VAR` for the
    /// terminal at index 0, `FREE_VAR` for free-list slots).
    var_col: Vec<u32>,
    /// Low-edge column; doubles as the free-list thread (`lo_col[i].0` holds
    /// the next free *index* while slot `i` is on the free-list).
    lo_col: Vec<NodeRef>,
    /// High-edge column; always regular (canonical form).
    hi_col: Vec<NodeRef>,
    /// Head of the free-list threaded through `lo_col` (`NO_FREE` when
    /// empty), plus its length for O(1) `allocated_nodes`.
    free_head: u32,
    free_len: usize,
    /// Per-variable unique tables.
    unique: Vec<UniqueTable>,
    /// `level -> var index`.
    var_at_level: Vec<u32>,
    /// `var index -> level`.
    level_of_var: Vec<u32>,
    /// Human-readable variable names (see [`Bdd::var_name`]).
    var_names: Vec<String>,
    /// Shared ITE + restrict/cube-quantification/constrain/rename/
    /// exists_set/or_and_not operation cache.
    cache: OpCache,
    /// Dedicated AndExists (relational-product) cache: three live node
    /// operands per key, so sharing slots with binary ops would evict the
    /// hottest entries of an image computation.
    andex: OpCache,
    /// Scratch visited-set shared by `size`/`support`/`gc` (interior
    /// mutability so `&self` traversals stay `&self`).
    marks: RefCell<Marks>,
    /// Interned substitution maps (source-sorted pairs) to the token that
    /// keys their `rename` entries in the shared cache (tokens are dense,
    /// in first-use order).
    rename_maps: HashMap<Vec<(u32, u32)>, u32>,
    /// Per-node reference counts (rc column, indexed by arena index); only
    /// maintained while `rc_active`.
    rc: Vec<u32>,
    /// Whether sifting-time reference counting (and with it immediate dead
    /// node reclamation in `swap_levels`) is on.
    rc_active: bool,
    /// Reused work stack of `rc_release` cascades.
    release_stack: Vec<NodeRef>,
    /// Reused `swap_levels` buffers: the x-nodes that interact with y, as
    /// `(node, lo, hi)`, and the x-table entries kept while draining.
    interacting: Vec<(NodeRef, NodeRef, NodeRef)>,
    kept: Vec<UniqueSlot>,
    /// Total `mk` calls; a rough work counter exposed for benchmarks.
    mk_calls: u64,
    /// Operation-cache probes in `ite` (excluding terminal short-circuits).
    cache_lookups: u64,
    /// Operation-cache hits in `ite`.
    cache_hits: u64,
    /// Shared-cache probes by `restrict`, the cube quantifiers,
    /// `exists_set`, `or_and_not` and `constrain` (not `ite` or `rename`).
    memo_lookups: u64,
    /// Shared-cache hits by the same.
    memo_hits: u64,
    /// Adjacent-level swaps performed (by `swap_levels`, hence by sifting).
    swap_count: u64,
    /// x-nodes rebuilt by those swaps (the ones that depend on y).
    swap_rewrites: u64,
    /// Nodes returned to the free-list by `gc` or by sifting reclamation.
    reclaimed_nodes: u64,
    /// High-water mark of allocated (live) nodes.
    peak_live_nodes: u64,
    /// Non-terminal node visits by `restrict`, and cache misses of the
    /// cube quantifiers, `exists_set`, the relational products,
    /// `constrain` and `or_and_not`.
    op_visits: u64,
    /// Dedicated-cache probes by `and_exists`/`and_exists_rename`.
    andex_lookups: u64,
    /// Dedicated-cache hits by `and_exists`/`and_exists_rename`.
    andex_hits: u64,
    /// Top-level `exists_cube`/`forall_cube`/`exists_set` invocations.
    cube_quant_calls: u64,
}

/// A snapshot of the manager's work counters, exposed so the synthesis
/// pipeline can record layer-native metrics per stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BddStats {
    /// Total `mk` invocations.
    pub mk_calls: u64,
    /// Operation-cache probes in `ite`.
    pub cache_lookups: u64,
    /// Operation-cache hits in `ite`.
    pub cache_hits: u64,
    /// Adjacent-level swaps performed by reordering.
    pub swap_count: u64,
    /// Nodes rebuilt by those swaps: the upper variable's nodes that depend
    /// on the lower one. Independent of table layout.
    pub swap_rewrites: u64,
    /// Live entries across the per-variable unique tables.
    pub unique_entries: u64,
    /// Valid entries currently in the operation cache.
    pub cache_entries: u64,
    /// Unique-table lookups (hash-consing probe sequences started).
    pub unique_lookups: u64,
    /// Total unique-table slot probes; `avg_probe_len` = probes / lookups.
    pub unique_probes: u64,
    /// Valid cache entries overwritten by a colliding key (lossy cache).
    pub cache_evictions: u64,
    /// Shared-cache probes by `restrict`, the cube quantifiers,
    /// `exists_set`, `or_and_not` and `constrain` (not `ite` or `rename`).
    pub memo_lookups: u64,
    /// Shared-cache hits by the same.
    pub memo_hits: u64,
    /// Nodes returned to the free-list by `gc` or sifting reclamation.
    pub reclaimed_nodes: u64,
    /// High-water mark of allocated (live) nodes.
    pub peak_live_nodes: u64,
    /// Non-terminal node visits by `restrict`, and cache misses of the
    /// cube quantifiers, `exists_set`, the relational products,
    /// `constrain` and `or_and_not`.
    pub op_visits: u64,
    /// Dedicated-cache probes by `and_exists`/`and_exists_rename`.
    pub andex_lookups: u64,
    /// Dedicated-cache hits by `and_exists`/`and_exists_rename`.
    pub andex_hits: u64,
    /// Top-level `exists_cube`/`forall_cube`/`exists_set` invocations.
    pub cube_quant_calls: u64,
}

impl BddStats {
    /// Hit rate of the ITE operation cache in `[0, 1]`; zero when no
    /// lookups have happened.
    pub fn hit_rate(&self) -> f64 {
        if self.cache_lookups == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.cache_lookups as f64
        }
    }

    /// Hit rate of the dedicated AndExists cache in `[0, 1]`; zero when no
    /// lookups have happened.
    pub fn andex_hit_rate(&self) -> f64 {
        if self.andex_lookups == 0 {
            0.0
        } else {
            self.andex_hits as f64 / self.andex_lookups as f64
        }
    }

    /// Mean unique-table probe-chain length per lookup; zero when no
    /// lookups have happened. Near 1.0 means near-ideal hashing.
    pub fn avg_probe_len(&self) -> f64 {
        if self.unique_lookups == 0 {
            0.0
        } else {
            self.unique_probes as f64 / self.unique_lookups as f64
        }
    }

    /// Element-wise sum with `other`, for aggregating per-manager stats
    /// (e.g. one manager per CFSM) into one report.
    pub fn merged(&self, other: &BddStats) -> BddStats {
        BddStats {
            mk_calls: self.mk_calls + other.mk_calls,
            cache_lookups: self.cache_lookups + other.cache_lookups,
            cache_hits: self.cache_hits + other.cache_hits,
            swap_count: self.swap_count + other.swap_count,
            swap_rewrites: self.swap_rewrites + other.swap_rewrites,
            unique_entries: self.unique_entries + other.unique_entries,
            cache_entries: self.cache_entries + other.cache_entries,
            unique_lookups: self.unique_lookups + other.unique_lookups,
            unique_probes: self.unique_probes + other.unique_probes,
            cache_evictions: self.cache_evictions + other.cache_evictions,
            memo_lookups: self.memo_lookups + other.memo_lookups,
            memo_hits: self.memo_hits + other.memo_hits,
            reclaimed_nodes: self.reclaimed_nodes + other.reclaimed_nodes,
            peak_live_nodes: self.peak_live_nodes + other.peak_live_nodes,
            op_visits: self.op_visits + other.op_visits,
            andex_lookups: self.andex_lookups + other.andex_lookups,
            andex_hits: self.andex_hits + other.andex_hits,
            cube_quant_calls: self.cube_quant_calls + other.cube_quant_calls,
        }
    }
}

/// `c << k` if the result fits in `u128`, else `None` (`0` shifts freely).
fn shl_checked(c: u128, k: u32) -> Option<u128> {
    if c == 0 {
        return Some(0);
    }
    if k >= 128 || c > (u128::MAX >> k) {
        return None;
    }
    Some(c << k)
}

impl Default for Bdd {
    fn default() -> Bdd {
        Bdd::new()
    }
}

impl Bdd {
    /// Creates an empty manager with no variables.
    pub fn new() -> Bdd {
        Bdd {
            // Index 0 is the single terminal (constant 1); its children are
            // self-loops so column reads on a terminal handle stay in
            // bounds and terminate traversals naturally.
            var_col: vec![TERMINAL_VAR],
            lo_col: vec![NodeRef::TRUE],
            hi_col: vec![NodeRef::TRUE],
            free_head: NO_FREE,
            free_len: 0,
            unique: Vec::new(),
            var_at_level: Vec::new(),
            level_of_var: Vec::new(),
            var_names: Vec::new(),
            cache: OpCache::new(),
            andex: OpCache::new(),
            marks: RefCell::new(Marks::default()),
            rename_maps: HashMap::new(),
            rc: Vec::new(),
            rc_active: false,
            release_stack: Vec::new(),
            interacting: Vec::new(),
            kept: Vec::new(),
            mk_calls: 0,
            cache_lookups: 0,
            cache_hits: 0,
            memo_lookups: 0,
            memo_hits: 0,
            swap_count: 0,
            swap_rewrites: 0,
            reclaimed_nodes: 0,
            peak_live_nodes: 0,
            op_visits: 0,
            andex_lookups: 0,
            andex_hits: 0,
            cube_quant_calls: 0,
        }
    }

    /// Declares a new variable at the bottom of the current order.
    pub fn new_var(&mut self, name: impl Into<String>) -> Var {
        let idx = self.level_of_var.len() as u32;
        self.level_of_var.push(self.var_at_level.len() as u32);
        self.var_at_level.push(idx);
        self.unique.push(UniqueTable::new());
        self.var_names.push(name.into());
        Var(idx)
    }

    /// Number of declared variables.
    pub fn num_vars(&self) -> usize {
        self.level_of_var.len()
    }

    /// The name given to `v` at creation.
    pub fn var_name(&self, v: Var) -> &str {
        &self.var_names[v.index()]
    }

    /// The current level (0 = root-most) of variable `v`.
    pub fn level(&self, v: Var) -> usize {
        self.level_of_var[v.index()] as usize
    }

    /// The variable currently at `level`.
    ///
    /// # Panics
    ///
    /// Panics if `level >= num_vars()`.
    pub fn var_at(&self, level: usize) -> Var {
        Var(self.var_at_level[level])
    }

    /// The current variable order, root-most first.
    pub fn order(&self) -> Vec<Var> {
        self.var_at_level.iter().map(|&v| Var(v)).collect()
    }

    /// Total `mk` invocations so far (work counter for benchmarks).
    pub fn mk_calls(&self) -> u64 {
        self.mk_calls
    }

    /// Snapshot of the manager's cumulative work counters and current
    /// table sizes.
    pub fn stats(&self) -> BddStats {
        BddStats {
            mk_calls: self.mk_calls,
            cache_lookups: self.cache_lookups,
            cache_hits: self.cache_hits,
            swap_count: self.swap_count,
            swap_rewrites: self.swap_rewrites,
            unique_entries: self.unique.iter().map(|t| t.len() as u64).sum(),
            cache_entries: self.cache.len as u64,
            unique_lookups: self.unique.iter().map(|t| t.lookups).sum(),
            unique_probes: self.unique.iter().map(|t| t.probes).sum(),
            cache_evictions: self.cache.evictions,
            memo_lookups: self.memo_lookups,
            memo_hits: self.memo_hits,
            reclaimed_nodes: self.reclaimed_nodes,
            peak_live_nodes: self.peak_live_nodes,
            op_visits: self.op_visits,
            andex_lookups: self.andex_lookups,
            andex_hits: self.andex_hits,
            cube_quant_calls: self.cube_quant_calls,
        }
    }

    fn level_of_node(&self, n: NodeRef) -> u32 {
        let v = self.var_col[n.idx()];
        if v == TERMINAL_VAR {
            TERMINAL_LEVEL
        } else {
            self.level_of_var[v as usize]
        }
    }

    /// The variable labelling node `n`, or `None` for terminals.
    pub fn node_var(&self, n: NodeRef) -> Option<Var> {
        let v = self.var_col[n.idx()];
        (v != TERMINAL_VAR).then_some(Var(v))
    }

    /// The low (`var = 0`) cofactor of a non-terminal node, with the
    /// handle's complement bit already pushed onto it. Walking `lo`/`hi`
    /// therefore traverses the *function* (the virtual complement-free
    /// BDD), so edge-walkers need no parity bookkeeping of their own.
    ///
    /// # Panics
    ///
    /// Panics if `n` is a terminal.
    pub fn lo(&self, n: NodeRef) -> NodeRef {
        assert!(!n.is_terminal(), "terminals have no children");
        self.lo_col[n.idx()].xor_parity(n.parity())
    }

    /// The high (`var = 1`) cofactor of a non-terminal node, complement bit
    /// applied (see [`Bdd::lo`]).
    ///
    /// # Panics
    ///
    /// Panics if `n` is a terminal.
    pub fn hi(&self, n: NodeRef) -> NodeRef {
        assert!(!n.is_terminal(), "terminals have no children");
        self.hi_col[n.idx()].xor_parity(n.parity())
    }

    /// The level of `n`'s top variable; terminals sit below every
    /// variable, at `num_vars()`.
    #[inline]
    pub fn node_level(&self, n: NodeRef) -> usize {
        match self.level_of_node(n) {
            TERMINAL_LEVEL => self.num_vars(),
            level => level as usize,
        }
    }

    /// Both cofactors of `n` on the variable at `level`: `(lo, hi)` if `n`
    /// splits there, else `(n, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `level` lies below `n`'s top.
    #[inline]
    pub fn cofactors_at_level(&self, n: NodeRef, level: usize) -> (NodeRef, NodeRef) {
        assert!(level <= self.node_level(n), "level below the node's top");
        self.cofactors_at(n, self.var_at_level[level])
    }

    /// The function `if v then hi else lo` for the variable `v` at
    /// `level`: one `mk`.
    ///
    /// # Panics
    ///
    /// Panics unless both children's tops lie below `level`.
    pub fn node_at_level(&mut self, level: usize, lo: NodeRef, hi: NodeRef) -> NodeRef {
        assert!(
            level < self.node_level(lo) && level < self.node_level(hi),
            "children must lie below the level"
        );
        self.mk(self.var_at_level[level], lo, hi)
    }

    /// The constant function for `value`.
    pub fn constant(&self, value: bool) -> NodeRef {
        if value {
            NodeRef::TRUE
        } else {
            NodeRef::FALSE
        }
    }

    /// The single-variable function `v`.
    pub fn var(&mut self, v: Var) -> NodeRef {
        self.mk(v.0, NodeRef::FALSE, NodeRef::TRUE)
    }

    /// The single-variable function `!v` (the same arena node as `v`,
    /// reached through a complement edge).
    pub fn nvar(&mut self, v: Var) -> NodeRef {
        self.mk(v.0, NodeRef::TRUE, NodeRef::FALSE)
    }

    /// Hash-consing node constructor; the only way nodes are created.
    fn mk(&mut self, var: u32, lo: NodeRef, hi: NodeRef) -> NodeRef {
        self.mk_calls += 1;
        if lo == hi {
            return lo;
        }
        debug_assert!(
            self.level_of_var[var as usize] < self.level_of_node(lo)
                && self.level_of_var[var as usize] < self.level_of_node(hi),
            "mk would violate the variable order"
        );
        self.mk_raw(var, lo, hi)
    }

    /// Like `mk` but without the order assertion; used mid-swap when the
    /// recorded order is transiently inconsistent. Canonicalizes the
    /// complement: a complemented hi edge is factored out of the node
    /// (`(v, lo, ¬h) = ¬(v, ¬lo, h)`), so stored hi edges are always
    /// regular and `f`/`¬f` share one node.
    fn mk_raw(&mut self, var: u32, lo: NodeRef, hi: NodeRef) -> NodeRef {
        if lo == hi {
            return lo;
        }
        if hi.parity() == 1 {
            self.mk_node(var, lo.complement(), hi.complement())
                .complement()
        } else {
            self.mk_node(var, lo, hi)
        }
    }

    /// Get-or-insert of a canonical `(var, lo, hi)` node (`hi` regular,
    /// `lo != hi`). Returns a regular handle.
    fn mk_node(&mut self, var: u32, lo: NodeRef, hi: NodeRef) -> NodeRef {
        debug_assert_eq!(hi.parity(), 0, "complemented hi edge");
        debug_assert_ne!(lo, hi);
        if let Some(n) = self.unique[var as usize].get(lo, hi) {
            return n;
        }
        let r = if self.free_head != NO_FREE {
            let i = self.free_head as usize;
            self.free_head = self.lo_col[i].0;
            self.free_len -= 1;
            self.var_col[i] = var;
            self.lo_col[i] = lo;
            self.hi_col[i] = hi;
            NodeRef((i as u32) << 1)
        } else {
            let i = self.var_col.len();
            self.var_col.push(var);
            self.lo_col.push(lo);
            self.hi_col.push(hi);
            NodeRef((i as u32) << 1)
        };
        self.unique[var as usize].insert(lo, hi, r);
        if self.rc_active {
            self.rc_set(r, 0);
            self.rc_inc(lo);
            self.rc_inc(hi);
        }
        self.peak_live_nodes = self.peak_live_nodes.max(self.allocated_nodes() as u64);
        r
    }

    /// Threads arena slot `i` onto the free-list (through the lo column).
    fn free_push(&mut self, i: usize) {
        self.var_col[i] = FREE_VAR;
        self.lo_col[i] = NodeRef(self.free_head);
        self.free_head = i as u32;
        self.free_len += 1;
    }

    #[inline]
    fn rc_set(&mut self, n: NodeRef, v: u32) {
        let i = n.idx();
        if self.rc.len() <= i {
            self.rc.resize(i + 1, 0);
        }
        self.rc[i] = v;
    }

    #[inline]
    fn rc_inc(&mut self, n: NodeRef) {
        if n.is_terminal() {
            return;
        }
        let i = n.idx();
        if self.rc.len() <= i {
            self.rc.resize(i + 1, 0);
        }
        self.rc[i] += 1;
    }

    /// Drops one reference to `n` and returns the remaining count.
    #[inline]
    fn rc_dec(&mut self, n: NodeRef) -> u32 {
        let c = &mut self.rc[n.idx()];
        debug_assert!(*c > 0, "rc underflow");
        *c -= 1;
        *c
    }

    /// Drops one reference to `n`; nodes whose count reaches zero are
    /// unlinked from their unique table, put on the free-list, and release
    /// their children in turn. Only called while `rc_active`. Most calls
    /// leave the count above zero and return before touching the stack.
    fn rc_release(&mut self, n: NodeRef) {
        if n.is_terminal() || self.rc_dec(n) > 0 {
            return;
        }
        let mut stack = std::mem::take(&mut self.release_stack);
        stack.push(n);
        // Every node on the stack has just dropped to zero references.
        while let Some(m) = stack.pop() {
            let i = m.idx();
            // Read the node out before free_push overwrites the lo slot
            // with the free-list thread.
            let (var, lo, hi) = (self.var_col[i], self.lo_col[i], self.hi_col[i]);
            self.unique[var as usize].remove(lo, hi);
            self.free_push(i);
            self.reclaimed_nodes += 1;
            for c in [lo, hi] {
                if !c.is_terminal() && self.rc_dec(c) == 0 {
                    stack.push(c);
                }
            }
        }
        self.release_stack = stack;
    }

    /// If-then-else: `ite(f, g, h) = f·g + !f·h`. All other Boolean
    /// operations are derived from it.
    ///
    /// Under complement edges a single normalization cascade folds the
    /// whole two-operand algebra onto canonical `(f, g, h)` triples: `and`,
    /// `or`, `and_not`, `implies` and their operand-swapped / negated forms
    /// all hash to the same cache entry, and so do `xor`/`iff`.
    pub fn ite(&mut self, f: NodeRef, g: NodeRef, h: NodeRef) -> NodeRef {
        // Terminal / identity cases.
        if f.is_true() {
            return g;
        }
        if f.is_false() {
            return h;
        }
        if g == h {
            return g;
        }
        let (mut f, mut g, mut h) = (f, g, h);
        // Branch absorption: a branch equal to (the complement of) the
        // condition collapses to a constant.
        if f == g {
            g = NodeRef::TRUE; // f·f + !f·h = f + h
        } else if f == g.complement() {
            g = NodeRef::FALSE; // f·!f + !f·h = !f·h
        }
        if f == h {
            h = NodeRef::FALSE; // f·g + !f·f = f·g
        } else if f == h.complement() {
            h = NodeRef::TRUE; // f·g + !f·!f = f·g + !f
        }
        if g == h {
            return g;
        }
        if g.is_true() && h.is_false() {
            return f;
        }
        if g.is_false() && h.is_true() {
            return f.complement();
        }
        // Canonical operand ordering: each two-operand shape is symmetric
        // under an operand swap (possibly through negation), so pick the
        // representative with the smaller raw key. Ties are impossible —
        // the absorption rules above already removed every f ≡ ±other
        // case, and the operands here are non-terminal.
        if g.is_true() {
            // or(f, h) = or(h, f)
            if f.0 > h.0 {
                std::mem::swap(&mut f, &mut h);
            }
        } else if h.is_false() {
            // and(f, g) = and(g, f)
            if f.0 > g.0 {
                std::mem::swap(&mut f, &mut g);
            }
        } else if g.is_false() {
            // !f·h: ite(f, 0, h) = ite(!h, 0, !f)
            if f.0 > h.0 ^ 1 {
                let (of, oh) = (f, h);
                f = oh.complement();
                h = of.complement();
            }
        } else if h.is_true() {
            // f => g: ite(f, g, 1) = ite(!g, !f, 1)
            if f.0 > g.0 ^ 1 {
                let (of, og) = (f, g);
                f = og.complement();
                g = of.complement();
            }
        } else if g == h.complement() {
            // xnor(f, g): ite(f, g, !g) = ite(g, f, !f)
            if f.0 > g.0 {
                std::mem::swap(&mut f, &mut g);
                h = g.complement();
            }
        }
        // Standard triple: regular condition first ...
        if f.parity() == 1 {
            f = f.complement();
            std::mem::swap(&mut g, &mut h);
        }
        // ... then a regular then-branch, factoring the complement out of
        // the result: ite(f, !g, !h) = !ite(f, g, h).
        let out_neg = g.parity() == 1;
        if out_neg {
            g = g.complement();
            h = h.complement();
        }
        self.cache_lookups += 1;
        if let Some(r) = self.cache.lookup(OP_ITE, f, g, h) {
            self.cache_hits += 1;
            return r.xor_parity(out_neg as u32);
        }
        let top = self
            .level_of_node(f)
            .min(self.level_of_node(g))
            .min(self.level_of_node(h));
        let v = self.var_at_level[top as usize];
        let (f0, f1) = self.cofactors_at(f, v);
        let (g0, g1) = self.cofactors_at(g, v);
        let (h0, h1) = self.cofactors_at(h, v);
        let t = self.ite(f1, g1, h1);
        let e = self.ite(f0, g0, h0);
        let r = self.mk(v, e, t);
        self.cache.insert(OP_ITE, f, g, h, r);
        r.xor_parity(out_neg as u32)
    }

    /// Both cofactors of `n` with respect to variable index `v` (which must
    /// be at or above `n`'s level). The handle's complement bit is pushed
    /// onto the cofactors; terminals and nodes below `v` cofactor to
    /// themselves.
    fn cofactors_at(&self, n: NodeRef, v: u32) -> (NodeRef, NodeRef) {
        let i = n.idx();
        if self.var_col[i] == v {
            let p = n.parity();
            (self.lo_col[i].xor_parity(p), self.hi_col[i].xor_parity(p))
        } else {
            (n, n)
        }
    }

    /// Conjunction.
    pub fn and(&mut self, f: NodeRef, g: NodeRef) -> NodeRef {
        self.ite(f, g, NodeRef::FALSE)
    }

    /// Disjunction.
    pub fn or(&mut self, f: NodeRef, g: NodeRef) -> NodeRef {
        self.ite(f, NodeRef::TRUE, g)
    }

    /// Negation: an O(1) complement-bit flip. Performs no `mk` calls and
    /// allocates nothing — `f` and `!f` share every node.
    pub fn not(&mut self, f: NodeRef) -> NodeRef {
        f.complement()
    }

    /// Exclusive or.
    pub fn xor(&mut self, f: NodeRef, g: NodeRef) -> NodeRef {
        self.ite(f, g.complement(), g)
    }

    /// Biconditional (`f == g`).
    pub fn iff(&mut self, f: NodeRef, g: NodeRef) -> NodeRef {
        self.ite(f, g, g.complement())
    }

    /// Implication (`f -> g`).
    pub fn implies(&mut self, f: NodeRef, g: NodeRef) -> NodeRef {
        self.ite(f, g, NodeRef::TRUE)
    }

    /// Conjunction of all `fs`.
    pub fn and_all(&mut self, fs: impl IntoIterator<Item = NodeRef>) -> NodeRef {
        fs.into_iter()
            .fold(NodeRef::TRUE, |acc, f| self.and(acc, f))
    }

    /// Disjunction of all `fs`.
    pub fn or_all(&mut self, fs: impl IntoIterator<Item = NodeRef>) -> NodeRef {
        fs.into_iter()
            .fold(NodeRef::FALSE, |acc, f| self.or(acc, f))
    }

    /// The restriction (cofactor) `f|_{v = val}` (Section II-C).
    ///
    /// Memoized in the persistent operation cache, so repeated cofactoring
    /// during sifting and s-graph extraction allocates nothing per call.
    pub fn restrict(&mut self, f: NodeRef, v: Var, val: bool) -> NodeRef {
        self.restrict_rec(f, v.0, val)
    }

    fn restrict_rec(&mut self, f: NodeRef, v: u32, val: bool) -> NodeRef {
        if f.is_terminal() {
            return f;
        }
        self.op_visits += 1;
        let flevel = self.level_of_node(f);
        let vlevel = self.level_of_var[v as usize];
        if flevel > vlevel {
            return f; // v does not occur in f
        }
        // Cofactoring commutes with complement: compute on the regular
        // node, memoize there, and re-apply the complement bit — so f and
        // !f share every memo entry.
        let p = f.parity();
        let fr = f.regular();
        let i = fr.idx();
        if self.var_col[i] == v {
            let c = if val { self.hi_col[i] } else { self.lo_col[i] };
            return c.xor_parity(p);
        }
        let op = if val { OP_RESTRICT1 } else { OP_RESTRICT0 };
        self.memo_lookups += 1;
        if let Some(r) = self.cache.lookup(op, fr, NodeRef(v), EMPTY) {
            self.memo_hits += 1;
            return r.xor_parity(p);
        }
        let (var, lo_raw, hi_raw) = (self.var_col[i], self.lo_col[i], self.hi_col[i]);
        let lo = self.restrict_rec(lo_raw, v, val);
        let hi = self.restrict_rec(hi_raw, v, val);
        let r = self.mk(var, lo, hi);
        self.cache.insert(op, fr, NodeRef(v), EMPTY, r);
        r.xor_parity(p)
    }

    /// The positive cube (conjunction of positive literals) of `vs`, the
    /// canonical variable-set representation consumed by
    /// [`Bdd::exists_cube`], [`Bdd::forall_cube`] and [`Bdd::and_exists`].
    ///
    /// Built bottom-up in descending level order, so construction is O(k)
    /// `mk` calls with no ITE work. Duplicates are collapsed. The cube is an
    /// ordinary node: root it (gc/persistent-roots) like any other function
    /// if it must survive collection, and note that its *shape* tracks the
    /// variable order — after a [`Bdd::sift`] the handle stays valid and
    /// still denotes the same conjunction. Cube handles are always regular
    /// (every node is `(v, 0, rest)` with a regular `rest`).
    pub fn cube(&mut self, vs: impl IntoIterator<Item = Var>) -> NodeRef {
        let mut vars: Vec<Var> = vs.into_iter().collect();
        // Sort deepest-first; duplicates land adjacent (level is injective).
        vars.sort_by_key(|&v| std::cmp::Reverse(self.level(v)));
        vars.dedup();
        let mut c = NodeRef::TRUE;
        for v in vars {
            c = self.mk(v.0, NodeRef::FALSE, c);
        }
        c
    }

    /// Existential quantification of every variable in the positive cube
    /// `cube` in a single traversal of `f`:
    /// `∃ x₁…xₖ. f` in one pass instead of one sweep per variable.
    ///
    /// `cube` must be a positive cube (every node's low child is 0), e.g.
    /// built by [`Bdd::cube`]; debug builds assert this. Memoized in the
    /// shared operation cache keyed on the advanced cube, so sub-problems
    /// of different top-level cubes still share entries.
    pub fn exists_cube(&mut self, f: NodeRef, cube: NodeRef) -> NodeRef {
        self.cube_quant_calls += 1;
        self.quant_cube_rec(f, cube, true)
    }

    /// Universal quantification of every cube variable in a single pass:
    /// `∀ x₁…xₖ. f`. Dual of [`Bdd::exists_cube`].
    pub fn forall_cube(&mut self, f: NodeRef, cube: NodeRef) -> NodeRef {
        self.cube_quant_calls += 1;
        self.quant_cube_rec(f, cube, false)
    }

    /// Parity shim of the cube quantifier: quantification dualizes through
    /// complement (`∃c. !f = !(∀c. f)`), so the recursion proper runs on
    /// the regular node with the quantifier flipped.
    fn quant_cube_rec(&mut self, f: NodeRef, cube: NodeRef, exists: bool) -> NodeRef {
        if f.is_terminal() {
            return f;
        }
        let p = f.parity();
        let ex = exists ^ (p == 1);
        self.quant_cube_reg(f.regular(), cube, ex).xor_parity(p)
    }

    /// Shared single-pass cube quantifier on a regular non-terminal `f`:
    /// `exists` selects ∨ (with an early exit on 1), `forall` selects ∧
    /// (early exit on 0).
    fn quant_cube_reg(&mut self, f: NodeRef, mut cube: NodeRef, exists: bool) -> NodeRef {
        let flevel = self.level_of_node(f);
        // Skip cube variables above f's top: f does not depend on them.
        while !cube.is_terminal() && self.level_of_node(cube) < flevel {
            debug_assert!(self.lo_col[cube.idx()].is_false(), "not a positive cube");
            cube = self.hi_col[cube.idx()];
        }
        if cube.is_terminal() {
            debug_assert!(cube.is_true(), "cube must not be the zero function");
            return f;
        }
        let op = if exists {
            OP_EXISTS_CUBE
        } else {
            OP_FORALL_CUBE
        };
        self.memo_lookups += 1;
        if let Some(r) = self.cache.lookup(op, f, cube, EMPTY) {
            self.memo_hits += 1;
            return r;
        }
        self.op_visits += 1;
        let i = f.idx();
        let (var, lo, hi) = (self.var_col[i], self.lo_col[i], self.hi_col[i]);
        let r = if self.level_of_node(cube) == flevel {
            debug_assert!(self.lo_col[cube.idx()].is_false(), "not a positive cube");
            let rest = self.hi_col[cube.idx()];
            let t = self.quant_cube_rec(hi, rest, exists);
            // Short-circuit: ∨ saturates at 1, ∧ at 0.
            if t.is_true() && exists {
                NodeRef::TRUE
            } else if t.is_false() && !exists {
                NodeRef::FALSE
            } else {
                let e = self.quant_cube_rec(lo, rest, exists);
                if exists {
                    self.or(t, e)
                } else {
                    self.and(t, e)
                }
            }
        } else {
            let t = self.quant_cube_rec(hi, cube, exists);
            let e = self.quant_cube_rec(lo, cube, exists);
            self.mk(var, e, t)
        };
        self.cache.insert(op, f, cube, EMPTY, r);
        r
    }

    /// The set image `(∃ cube. f) ∧ cube` in one recursion: every cube
    /// variable is quantified out of `f` and then fixed to 1, without
    /// materializing the quantified intermediate. This is the environment
    /// image of reachability (deliver an input: whatever the consumer
    /// flags were, they are now set).
    ///
    /// At a cube level the result node is `(v, 0, t ∨ e)` over the
    /// cofactor results, elsewhere `f`'s own node over the recursed
    /// children. `cube` must be a positive cube. Memoized in the shared
    /// cache on the full handle of `f` (quantification does not commute
    /// with the conjunction, so there is no complement duality to
    /// exploit); counts one [`BddStats`] `cube_quant_calls` per call like
    /// [`Bdd::exists_cube`].
    pub fn exists_set(&mut self, f: NodeRef, cube: NodeRef) -> NodeRef {
        self.cube_quant_calls += 1;
        self.exists_set_rec(f, cube)
    }

    fn exists_set_rec(&mut self, f: NodeRef, cube: NodeRef) -> NodeRef {
        if cube.is_true() || f.is_false() {
            return f;
        }
        if f.is_true() {
            return cube;
        }
        self.memo_lookups += 1;
        if let Some(r) = self.cache.lookup(OP_EXISTS_SET, f, cube, EMPTY) {
            self.memo_hits += 1;
            return r;
        }
        self.op_visits += 1;
        let r = if self.level_of_node(cube) <= self.level_of_node(f) {
            debug_assert!(self.lo_col[cube.idx()].is_false(), "not a positive cube");
            let (v, rest) = (self.var_col[cube.idx()], self.hi_col[cube.idx()]);
            let (f0, f1) = self.cofactors_at(f, v);
            let t = self.exists_set_rec(f1, rest);
            // `t == rest` means `∃ rest. f1` is 1, which absorbs `e`.
            let q = if t == rest || f0 == f1 {
                t
            } else {
                let e = self.exists_set_rec(f0, rest);
                self.or(t, e)
            };
            self.mk(v, NodeRef::FALSE, q)
        } else {
            let v = self.var_col[f.idx()];
            let (f0, f1) = self.cofactors_at(f, v);
            let t = self.exists_set_rec(f1, cube);
            let e = self.exists_set_rec(f0, cube);
            self.mk(v, e, t)
        };
        self.cache.insert(OP_EXISTS_SET, f, cube, EMPTY, r);
        r
    }

    /// The relational product `∃ cube. f ∧ g` in one recursion, without ever
    /// materializing the conjunction `f ∧ g` (CUDD's `bddAndAbstract`).
    ///
    /// This is the image-computation workhorse: the intermediate conjunct of
    /// a frontier with a transition-relation part is typically far larger
    /// than either operand or the result, and this operator never builds it.
    /// Results are memoized in a dedicated cache (see [`BddStats`]'s
    /// `andex_lookups`/`andex_hits`) so relational products do not evict the
    /// ITE working set. `cube` must be a positive cube.
    ///
    /// Unlike the unary operators, the complement of an operand *cannot* be
    /// factored out (`∃` does not commute with negation under ∧), so keys
    /// carry the full complement-bit-tagged handles.
    pub fn and_exists(&mut self, f: NodeRef, g: NodeRef, cube: NodeRef) -> NodeRef {
        if f.is_false() || g.is_false() || f == g.complement() {
            return NodeRef::FALSE;
        }
        if f == g || g.is_true() {
            return self.exists_cube(f, cube);
        }
        if f.is_true() {
            return self.exists_cube(g, cube);
        }
        self.and_exists_rec(f, g, cube, None)
    }

    /// The renamed relational product `rename(∃ cube. f ∧ g, pairs)` in one
    /// recursion: the image step of reachability, whose next-state rail
    /// is mapped back onto the current one, without materializing the
    /// quantified product on the wrong rail.
    ///
    /// A quantified level ors its cofactor results as in
    /// [`Bdd::and_exists`]; any other node is rebuilt on its renamed
    /// variable exactly as [`Bdd::rename`] does (plain `mk` when the
    /// target sits above both children, `ite` otherwise), so the result is
    /// correct under any variable order. Where the cube runs out the rest
    /// is `f ∧ g` renamed. `pairs` obey [`Bdd::rename`]'s preconditions,
    /// and no target may survive the quantification (the image quantifies
    /// every current-state variable it renames onto). Memoized in the
    /// dedicated AndExists cache under the interned map's token, so plain
    /// and renamed products never alias.
    pub fn and_exists_rename(
        &mut self,
        f: NodeRef,
        g: NodeRef,
        cube: NodeRef,
        pairs: &[(Var, Var)],
    ) -> NodeRef {
        match self.rename_map(pairs) {
            Some((map, token)) => self.and_exists_rec(f, g, cube, Some((&map, token))),
            None => self.and_exists(f, g, cube),
        }
    }

    /// The one relational-product recursion behind [`Bdd::and_exists`]
    /// (`rn` is `None`) and [`Bdd::and_exists_rename`] (`rn` is the rename
    /// map and its token). With a map, every result is renamed: terminal
    /// and cube-exhausted results through `rename_rec`, rebuilt nodes
    /// through `renamed_node`, and entries key under
    /// `OP_ANDEX_RENAME + token` instead of `OP_ANDEX`.
    fn and_exists_rec(
        &mut self,
        f: NodeRef,
        g: NodeRef,
        cube: NodeRef,
        rn: Option<(&[u32], NodeRef)>,
    ) -> NodeRef {
        if f.is_false() || g.is_false() || f == g.complement() {
            return NodeRef::FALSE;
        }
        if f.is_true() || g.is_true() || f == g {
            let h = if f.is_true() { g } else { f };
            let q = self.quant_cube_rec(h, cube, true);
            return self.rename_opt(q, rn);
        }
        // Both non-terminal. Conjunction is commutative: order the operands
        // by raw key so (f, g) and (g, f) share one cache slot.
        let (f, g) = if f.0 <= g.0 { (f, g) } else { (g, f) };
        let top = self.level_of_node(f).min(self.level_of_node(g));
        // Advance the cube past variables above both operands.
        let mut cube = cube;
        while !cube.is_terminal() && self.level_of_node(cube) < top {
            debug_assert!(self.lo_col[cube.idx()].is_false(), "not a positive cube");
            cube = self.hi_col[cube.idx()];
        }
        if cube.is_terminal() {
            debug_assert!(cube.is_true(), "cube must not be the zero function");
            let a = self.and(f, g);
            return self.rename_opt(a, rn);
        }
        let op = rn.map_or(OP_ANDEX, |(_, token)| OP_ANDEX_RENAME + token.0);
        self.andex_lookups += 1;
        if let Some(r) = self.andex.lookup(op, f, g, cube) {
            self.andex_hits += 1;
            return r;
        }
        self.op_visits += 1;
        let v = self.var_at_level[top as usize];
        let (f0, f1) = self.cofactors_at(f, v);
        let (g0, g1) = self.cofactors_at(g, v);
        let r = if self.level_of_node(cube) == top {
            let rest = self.hi_col[cube.idx()];
            let t = self.and_exists_rec(f1, g1, rest, rn);
            if t.is_true() {
                NodeRef::TRUE
            } else {
                let e = self.and_exists_rec(f0, g0, rest, rn);
                self.or(t, e)
            }
        } else {
            let t = self.and_exists_rec(f1, g1, cube, rn);
            let e = self.and_exists_rec(f0, g0, cube, rn);
            match rn {
                Some((map, _)) => self.renamed_node(map[v as usize], e, t),
                None => self.mk(v, e, t),
            }
        };
        self.andex.insert(op, f, g, cube, r);
        r
    }

    /// The generalized cofactor (Coudert/Madre `constrain`): a function that
    /// agrees with `f` everywhere `c` holds and is free to simplify outside
    /// `c`, i.e. `constrain(f, c) ∧ c == f ∧ c`.
    ///
    /// Used to minimize reachability frontiers against the reached set's
    /// don't-care space. When `c` is a positive cube this reduces to the
    /// ordinary cofactor `f|_c`. `c` must be satisfiable; `constrain(f, 0)`
    /// returns 0 by convention.
    pub fn constrain(&mut self, f: NodeRef, c: NodeRef) -> NodeRef {
        if c.is_false() {
            return NodeRef::FALSE;
        }
        self.constrain_rec(f, c)
    }

    fn constrain_rec(&mut self, f: NodeRef, c: NodeRef) -> NodeRef {
        if c.is_true() || f.is_terminal() {
            return f;
        }
        if f == c {
            return NodeRef::TRUE;
        }
        if f == c.complement() {
            return NodeRef::FALSE;
        }
        // constrain(!f, c) = !constrain(f, c): factor the operand's
        // complement bit out and memoize on the regular node.
        let p = f.parity();
        let fr = f.regular();
        let top = self.level_of_node(fr).min(self.level_of_node(c));
        let v = self.var_at_level[top as usize];
        let (c0, c1) = self.cofactors_at(c, v);
        // A one-sided care set maps the whole level onto the live branch —
        // this is where constrain drops variables (and why it is only a
        // *generalized* cofactor).
        if c0.is_false() {
            let (_, f1) = self.cofactors_at(fr, v);
            let r = self.constrain_rec(f1, c1);
            return r.xor_parity(p);
        }
        if c1.is_false() {
            let (f0, _) = self.cofactors_at(fr, v);
            let r = self.constrain_rec(f0, c0);
            return r.xor_parity(p);
        }
        self.memo_lookups += 1;
        if let Some(r) = self.cache.lookup(OP_CONSTRAIN, fr, c, EMPTY) {
            self.memo_hits += 1;
            return r.xor_parity(p);
        }
        self.op_visits += 1;
        let (f0, f1) = self.cofactors_at(fr, v);
        let t = self.constrain_rec(f1, c1);
        let e = self.constrain_rec(f0, c0);
        let r = self.mk(v, e, t);
        self.cache.insert(OP_CONSTRAIN, fr, c, EMPTY, r);
        r.xor_parity(p)
    }

    /// Difference `f ∧ ¬g` as a single ITE (`ite(g, 0, f)`), avoiding a
    /// separate negation step. The frontier step of reachability
    /// (`new ∖ reached`) is exactly this shape.
    pub fn and_not(&mut self, f: NodeRef, g: NodeRef) -> NodeRef {
        self.ite(g, NodeRef::FALSE, f)
    }

    /// `(a ∨ b) ∧ ¬r` in one recursion, without materializing `a ∨ b`:
    /// the first level of reachability's image union, where two images
    /// (mostly states already reached) merge and drop the reached set
    /// `r` at once. Memoized in the shared cache with `a`/`b` ordered by
    /// key; degenerate operands fall back to `or` or [`Bdd::and_not`].
    pub fn or_and_not(&mut self, a: NodeRef, b: NodeRef, r: NodeRef) -> NodeRef {
        if r.is_true() {
            return NodeRef::FALSE;
        }
        if r.is_false() {
            return self.or(a, b);
        }
        let nr = r.complement();
        if a.is_true() || b.is_true() || a == b.complement() || a == nr || b == nr {
            return nr;
        }
        if a.is_false() || a == r {
            return self.and_not(b, r);
        }
        if b.is_false() || b == r || a == b {
            return self.and_not(a, r);
        }
        let (a, b) = if a.0 <= b.0 { (a, b) } else { (b, a) };
        self.memo_lookups += 1;
        if let Some(res) = self.cache.lookup(OP_OR_AND_NOT, a, b, r) {
            self.memo_hits += 1;
            return res;
        }
        self.op_visits += 1;
        let top = self
            .level_of_node(a)
            .min(self.level_of_node(b))
            .min(self.level_of_node(r));
        let v = self.var_at_level[top as usize];
        let (a0, a1) = self.cofactors_at(a, v);
        let (b0, b1) = self.cofactors_at(b, v);
        let (r0, r1) = self.cofactors_at(r, v);
        let t = self.or_and_not(a1, b1, r1);
        let e = self.or_and_not(a0, b0, r0);
        let res = self.mk(v, e, t);
        self.cache.insert(OP_OR_AND_NOT, a, b, r, res);
        res
    }

    /// Simultaneous variable renaming: rewrites `f` with every source
    /// variable of `pairs` replaced by its target variable.
    ///
    /// The substitution is rebuilt bottom-up in one recursion and is
    /// correct for any variable order — targets need not occupy the levels
    /// of their sources. Sources must be distinct, and no target may also
    /// appear as a source or in the support of `f` (that would capture the
    /// renamed occurrences); the relational-image use — mapping next-state
    /// variables onto their quantified-out current-state rails — satisfies
    /// both by construction. Debug builds assert the source/target sets are
    /// disjoint.
    pub fn rename(&mut self, f: NodeRef, pairs: &[(Var, Var)]) -> NodeRef {
        if f.is_terminal() {
            return f;
        }
        match self.rename_map(pairs) {
            Some((map, token)) => self.rename_rec(f, &map, token),
            None => f,
        }
    }

    /// The variable map of `pairs` (identity off the sources) and the
    /// token of its interned form, or `None` when every pair is an
    /// identity.
    fn rename_map(&mut self, pairs: &[(Var, Var)]) -> Option<(Vec<u32>, NodeRef)> {
        let pairs: Vec<(Var, Var)> = pairs.iter().copied().filter(|&(s, t)| s != t).collect();
        if pairs.is_empty() {
            return None;
        }
        debug_assert!(
            pairs
                .iter()
                .all(|&(_, t)| pairs.iter().all(|&(s, _)| s != t)),
            "rename target also appears as a source"
        );
        debug_assert!(
            pairs
                .iter()
                .enumerate()
                .all(|(i, &(s, _))| pairs[..i].iter().all(|&(s2, _)| s2 != s)),
            "duplicate rename source"
        );
        let mut map: Vec<u32> = (0..self.level_of_var.len() as u32).collect();
        for &(s, t) in &pairs {
            map[s.0 as usize] = t.0;
        }
        // Intern the (source-sorted) map and use its id as a token keying
        // shared-cache entries, so subgraphs shared between successive
        // images skip the whole rebuild. Sifting's generation bump
        // invalidates these entries along with everything else; gc keeps
        // those whose nodes survive.
        let mut sorted = pairs.clone();
        sorted.sort_unstable_by_key(|&(s, _)| s.0);
        let sorted: Vec<(u32, u32)> = sorted.into_iter().map(|(s, t)| (s.0, t.0)).collect();
        let next = self.rename_maps.len() as u32;
        let token = NodeRef(*self.rename_maps.entry(sorted).or_insert(next));
        Some((map, token))
    }

    /// Rebuilds `f` under `map`, memoized in the shared cache on the regular
    /// node and the map's `token`; renaming commutes with complement, so the
    /// operand's complement bit transfers to the result. A node whose new
    /// variable still sits strictly above both renamed children keeps its
    /// shape and is built with a plain `mk` — the relational-image rename
    /// always takes this path, since group-constrained sifting keeps each
    /// next-state rail beside its current-state twin. Any other node is
    /// rebuilt as `ite(v, hi, lo)`, which yields the same canonical node
    /// whenever both forms apply.
    fn rename_rec(&mut self, f: NodeRef, map: &[u32], token: NodeRef) -> NodeRef {
        if f.is_terminal() {
            return f;
        }
        let p = f.parity();
        let fr = f.regular();
        if let Some(r) = self.cache.lookup(OP_RENAME, fr, EMPTY, token) {
            return r.xor_parity(p);
        }
        let i = fr.idx();
        let (var, lo_raw, hi_raw) = (self.var_col[i], self.lo_col[i], self.hi_col[i]);
        let lo = self.rename_rec(lo_raw, map, token);
        let hi = self.rename_rec(hi_raw, map, token);
        let r = self.renamed_node(map[var as usize], lo, hi);
        self.cache.insert(OP_RENAME, fr, EMPTY, token, r);
        r.xor_parity(p)
    }

    /// `f` renamed under `rn` (see [`Bdd::and_exists_rename`]), or `f`
    /// itself when there is no map.
    fn rename_opt(&mut self, f: NodeRef, rn: Option<(&[u32], NodeRef)>) -> NodeRef {
        match rn {
            Some((map, token)) => self.rename_rec(f, map, token),
            None => f,
        }
    }

    /// The node `(v, lo, hi)` for children already renamed: a plain `mk`
    /// when `v` sits strictly above both, else `ite(v, hi, lo)`.
    fn renamed_node(&mut self, v: u32, lo: NodeRef, hi: NodeRef) -> NodeRef {
        let vl = self.level_of_var[v as usize];
        if vl < self.level_of_node(lo) && vl < self.level_of_node(hi) {
            self.mk(v, lo, hi)
        } else {
            let vf = self.var(Var(v));
            self.ite(vf, hi, lo)
        }
    }

    /// The set of variables `f` essentially depends on, sorted by current
    /// level (root-most first).
    pub fn support(&self, f: NodeRef) -> Vec<Var> {
        let mut marks = self.marks.take();
        marks.begin(self.var_col.len());
        let mut vars: Vec<u32> = Vec::new();
        let mut stack = vec![f];
        while let Some(n) = stack.pop() {
            if n.is_terminal() || !marks.mark(n) {
                continue;
            }
            let i = n.idx();
            vars.push(self.var_col[i]);
            stack.push(self.lo_col[i]);
            stack.push(self.hi_col[i]);
        }
        self.marks.replace(marks);
        vars.sort_by_key(|&v| self.level_of_var[v as usize]);
        vars.dedup();
        vars.into_iter().map(Var).collect()
    }

    /// Evaluates `f` under the assignment `val` (a predicate on variables).
    pub fn eval(&self, f: NodeRef, val: impl Fn(Var) -> bool) -> bool {
        let mut n = f;
        while !n.is_terminal() {
            let i = n.idx();
            let p = n.parity();
            let c = if val(Var(self.var_col[i])) {
                self.hi_col[i]
            } else {
                self.lo_col[i]
            };
            n = c.xor_parity(p);
        }
        n.is_true()
    }

    /// Number of satisfying assignments of `f` over all declared variables,
    /// saturating at `u128::MAX` when the count does not fit (128 or more
    /// variables can overflow). Use [`Bdd::checked_sat_count`] to detect
    /// overflow.
    pub fn sat_count(&self, f: NodeRef) -> u128 {
        self.checked_sat_count(f).unwrap_or(u128::MAX)
    }

    /// Number of satisfying assignments of `f` over all declared variables,
    /// or `None` if the count overflows `u128`.
    pub fn checked_sat_count(&self, f: NodeRef) -> Option<u128> {
        let all: Vec<Var> = (0..self.num_vars() as u32).map(Var).collect();
        self.checked_sat_count_over(f, &all)
    }

    /// Number of satisfying assignments of `f` over the variables `vars`
    /// alone, or `None` if the count overflows `u128`. Variables outside
    /// `vars` are not counted at all, so a set over a few state variables
    /// in a manager with many auxiliary ones counts exactly.
    ///
    /// # Panics
    ///
    /// Panics if `f` depends on a variable outside `vars`.
    pub fn checked_sat_count_over(&self, f: NodeRef, vars: &[Var]) -> Option<u128> {
        // `rank[l]`: counted variables at levels above `l`; the terminal
        // level ranks below all of them.
        let nvars = self.num_vars();
        let mut counted = vec![false; nvars];
        for &v in vars {
            counted[self.level(v)] = true;
        }
        let mut rank = Vec::with_capacity(nvars + 1);
        let mut above = 0u32;
        for &c in &counted {
            rank.push(above);
            above += u32::from(c);
        }
        rank.push(above);
        let mut memo: HashMap<NodeRef, u128> = HashMap::new();
        let below_root = self.sat_count_rec(f, &rank, &mut memo)?;
        shl_checked(below_root, rank[self.sat_level(f)])
    }

    /// The level of `f`'s node, with terminals at `num_vars()`.
    fn sat_level(&self, f: NodeRef) -> usize {
        if f.is_terminal() {
            self.num_vars()
        } else {
            self.level_of_node(f) as usize
        }
    }

    /// Counts assignments over the counted variables at and below the
    /// node's level (`rank` as in [`Bdd::checked_sat_count_over`]); `None`
    /// on overflow. Memoized on the full handle (complement bit included):
    /// a node and its complement count different functions.
    fn sat_count_rec(
        &self,
        f: NodeRef,
        rank: &[u32],
        memo: &mut HashMap<NodeRef, u128>,
    ) -> Option<u128> {
        if f.is_false() {
            return Some(0);
        }
        if f.is_true() {
            return Some(1);
        }
        if let Some(&c) = memo.get(&f) {
            return Some(c);
        }
        let level = self.level_of_node(f) as usize;
        assert!(
            rank[level + 1] > rank[level],
            "sat count over a set that misses a support variable"
        );
        let (lo, hi) = (self.lo(f), self.hi(f));
        let mut c = 0u128;
        for child in [lo, hi] {
            let n = self.sat_count_rec(child, rank, memo)?;
            let skipped = rank[self.sat_level(child)] - rank[level] - 1;
            c = c.checked_add(shl_checked(n, skipped)?)?;
        }
        memo.insert(f, c);
        Some(c)
    }

    /// Returns one satisfying assignment of `f` as `(Var, bool)` pairs for
    /// the variables on the chosen path, or `None` if `f` is unsatisfiable.
    pub fn pick_cube(&self, f: NodeRef) -> Option<Vec<(Var, bool)>> {
        if f.is_false() {
            return None;
        }
        let mut cube = Vec::new();
        let mut n = f;
        // Every non-FALSE function is satisfiable (canonical form), so
        // descending into any non-FALSE cofactor maintains the invariant.
        while !n.is_terminal() {
            let i = n.idx();
            let p = n.parity();
            let hc = self.hi_col[i].xor_parity(p);
            if hc.is_false() {
                cube.push((Var(self.var_col[i]), false));
                n = self.lo_col[i].xor_parity(p);
            } else {
                cube.push((Var(self.var_col[i]), true));
                n = hc;
            }
        }
        debug_assert!(n.is_true());
        Some(cube)
    }

    /// Number of distinct nodes (terminals excluded) reachable from `roots`.
    /// A node and its complement handle count once — they are one node.
    pub fn size(&self, roots: &[NodeRef]) -> usize {
        let mut marks = self.marks.take();
        marks.begin(self.var_col.len());
        let mut stack: Vec<NodeRef> = roots.to_vec();
        let mut count = 0;
        while let Some(n) = stack.pop() {
            if n.is_terminal() || !marks.mark(n) {
                continue;
            }
            count += 1;
            let i = n.idx();
            stack.push(self.lo_col[i]);
            stack.push(self.hi_col[i]);
        }
        self.marks.replace(marks);
        count
    }

    /// Total allocated (live or dead) non-terminal nodes in the store.
    pub fn allocated_nodes(&self) -> usize {
        self.var_col.len() - 1 - self.free_len
    }

    /// Mark-and-sweep garbage collection: frees every node not reachable
    /// from `roots` and invalidates the operation cache. Handles reachable
    /// from `roots` remain valid. Returns the number of nodes freed.
    pub fn gc(&mut self, roots: &[NodeRef]) -> usize {
        let mut marks = self.marks.take();
        marks.begin(self.var_col.len());
        let mut stack: Vec<NodeRef> = roots.to_vec();
        while let Some(n) = stack.pop() {
            if n.is_terminal() || !marks.mark(n) {
                continue;
            }
            let i = n.idx();
            stack.push(self.lo_col[i]);
            stack.push(self.hi_col[i]);
        }
        let mut dropped: Vec<NodeRef> = Vec::new();
        for table in &mut self.unique {
            table.retain(|n| marks.is_marked(n), &mut dropped);
        }
        self.marks.replace(marks);
        let freed = dropped.len();
        for n in dropped {
            self.free_push(n.idx());
        }
        self.reclaimed_nodes += freed as u64;
        // Collection moves no node, so a cache entry stays valid exactly
        // when everything it mentions survived. Freed slots are not reused
        // until a later `mk`, so the FREE_VAR test below is race-free.
        // `EMPTY` passes as key padding; token keys (variable ids, rename
        // signatures) are at worst dropped spuriously.
        let (var_col, n) = (&self.var_col, self.var_col.len());
        let alive = |r: NodeRef| {
            r.is_terminal() || r == EMPTY || (r.idx() < n && var_col[r.idx()] != FREE_VAR)
        };
        self.cache.retain(alive);
        self.andex.retain(alive);
        freed
    }

    /// Invalidates both operation caches in O(1) (needed after reordering;
    /// done automatically by [`Bdd::sift`]).
    pub fn clear_cache(&mut self) {
        self.cache.invalidate();
        self.andex.invalidate();
    }

    /// Walks the whole store and panics on any violation of the kernel's
    /// representation invariants:
    ///
    /// * stored handles (table values and hi edges) are regular — no
    ///   complemented then-edges anywhere;
    /// * every unique-table entry matches the arena columns, labels its own
    ///   variable, is reduced (`lo != hi`), respects the level order, and
    ///   appears in exactly one table;
    /// * children are live (never free-list slots);
    /// * table entries + free-list slots exactly tile the arena, and the
    ///   free-list thread has the recorded length;
    /// * while sifting-time refcounts are active, every count is at least
    ///   the node's in-table reference count.
    ///
    /// Intended for tests and `debug_assert!`-gated self-checks (the sift
    /// epilogue runs it in debug builds); it is O(arena) and allocates.
    pub fn check_canonical(&self) {
        let n = self.var_col.len();
        assert_eq!(self.lo_col.len(), n, "column length mismatch");
        assert_eq!(self.hi_col.len(), n, "column length mismatch");
        assert_eq!(
            self.var_col[0], TERMINAL_VAR,
            "index 0 must be the terminal"
        );
        let mut seen = vec![false; n];
        seen[0] = true;
        let mut entries = 0usize;
        let mut table_refs = vec![0u32; n];
        for (var, table) in self.unique.iter().enumerate() {
            for (lo, hi, node) in table.iter() {
                entries += 1;
                assert_eq!(node.parity(), 0, "table holds a complemented handle");
                let i = node.idx();
                assert!(i < n, "table handle out of bounds");
                assert!(!seen[i], "node {i} appears in two tables");
                seen[i] = true;
                assert_eq!(self.var_col[i], var as u32, "table/column var mismatch");
                assert_eq!(self.lo_col[i], lo, "table/column lo mismatch");
                assert_eq!(self.hi_col[i], hi, "table/column hi mismatch");
                assert_eq!(hi.parity(), 0, "complemented hi edge at node {i}");
                assert_ne!(lo, hi, "unreduced node {i}");
                for child in [lo, hi] {
                    if !child.is_terminal() {
                        let ci = child.idx();
                        assert!(ci < n, "child out of bounds");
                        let cv = self.var_col[ci];
                        assert_ne!(cv, FREE_VAR, "node {i} points at freed slot {ci}");
                        assert!(
                            self.level_of_var[var] < self.level_of_var[cv as usize],
                            "level order violated at node {i}"
                        );
                        table_refs[ci] += 1;
                    }
                }
            }
        }
        assert_eq!(
            entries,
            self.allocated_nodes(),
            "unique-table entries vs allocated nodes"
        );
        let mut free_cnt = 0usize;
        let mut i = self.free_head;
        while i != NO_FREE {
            let ii = i as usize;
            assert!(ii < n, "free-list index out of bounds");
            assert_eq!(self.var_col[ii], FREE_VAR, "free slot not marked FREE_VAR");
            assert!(!seen[ii], "free slot {ii} also sits in a unique table");
            free_cnt += 1;
            assert!(free_cnt <= self.free_len, "free-list longer than recorded");
            i = self.lo_col[ii].0;
        }
        assert_eq!(free_cnt, self.free_len, "free-list length mismatch");
        assert_eq!(
            entries + self.free_len + 1,
            n,
            "arena not tiled by tables + free-list"
        );
        if self.rc_active {
            for (idx, &refs) in table_refs.iter().enumerate() {
                if refs > 0 {
                    assert!(
                        self.rc[idx] >= refs,
                        "rc[{idx}] = {} below its in-table reference count {refs}",
                        self.rc[idx]
                    );
                }
            }
        }
    }

    // ---- internals shared with the reorder module ----

    /// Raw stored fields of a (regular) node handle: `(var, lo, hi)` with
    /// the hi edge regular by canonical form.
    pub(crate) fn node(&self, n: NodeRef) -> (u32, NodeRef, NodeRef) {
        let i = n.idx();
        (self.var_col[i], self.lo_col[i], self.hi_col[i])
    }

    pub(crate) fn rewrite_node(&mut self, n: NodeRef, var: u32, lo: NodeRef, hi: NodeRef) {
        debug_assert_eq!(hi.parity(), 0, "rewrite would store a complemented hi edge");
        let i = n.idx();
        self.var_col[i] = var;
        self.lo_col[i] = lo;
        self.hi_col[i] = hi;
    }

    pub(crate) fn unique_table(&self, var: u32) -> &UniqueTable {
        &self.unique[var as usize]
    }

    pub(crate) fn unique_table_mut(&mut self, var: u32) -> &mut UniqueTable {
        &mut self.unique[var as usize]
    }

    /// Takes the nodes of `x` that have a `y`-labelled child out of `x`'s
    /// unique table, as `(node, lo, hi)` in a reused buffer that the caller
    /// hands back with [`Bdd::return_interacting`].
    pub(crate) fn drain_interacting(&mut self, x: u32, y: u32) -> Vec<(NodeRef, NodeRef, NodeRef)> {
        let mut out = std::mem::take(&mut self.interacting);
        out.clear();
        let var_col = &self.var_col;
        self.unique[x as usize].drain_where(
            |lo, hi| var_col[lo.idx()] == y || var_col[hi.idx()] == y,
            &mut out,
            &mut self.kept,
        );
        self.swap_rewrites += out.len() as u64;
        out
    }

    pub(crate) fn return_interacting(&mut self, buf: Vec<(NodeRef, NodeRef, NodeRef)>) {
        self.interacting = buf;
    }

    pub(crate) fn make_inner(&mut self, var: u32, lo: NodeRef, hi: NodeRef) -> NodeRef {
        self.mk_raw(var, lo, hi)
    }

    pub(crate) fn set_level(&mut self, v: u32, level: u32) {
        self.level_of_var[v as usize] = level;
        self.var_at_level[level as usize] = v;
    }

    /// Installs reference counts for every live node (callers must have
    /// garbage-collected first so the tables contain exactly the reachable
    /// nodes) and turns on sifting-time reclamation.
    pub(crate) fn rc_begin(&mut self, roots: &[NodeRef]) {
        self.rc.clear();
        self.rc.resize(self.var_col.len(), 0);
        let rc = &mut self.rc;
        for table in &self.unique {
            for (lo, hi, _) in table.iter() {
                if !lo.is_terminal() {
                    rc[lo.idx()] += 1;
                }
                if !hi.is_terminal() {
                    rc[hi.idx()] += 1;
                }
            }
        }
        for &r in roots {
            if !r.is_terminal() {
                rc[r.idx()] += 1;
            }
        }
        self.rc_active = true;
    }

    /// Turns sifting-time reclamation back off and drops the counts.
    pub(crate) fn rc_end(&mut self) {
        self.rc_active = false;
        self.rc.clear();
    }

    pub(crate) fn rc_is_active(&self) -> bool {
        self.rc_active
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup3() -> (Bdd, Var, Var, Var) {
        let mut b = Bdd::new();
        let x = b.new_var("x");
        let y = b.new_var("y");
        let z = b.new_var("z");
        (b, x, y, z)
    }

    #[test]
    fn constants_and_vars() {
        let (mut b, x, _, _) = setup3();
        assert!(b.constant(true).is_true());
        assert!(b.constant(false).is_false());
        let fx = b.var(x);
        assert!(b.eval(fx, |_| true));
        assert!(!b.eval(fx, |_| false));
        let nx = b.nvar(x);
        let alt = b.not(fx);
        assert_eq!(nx, alt, "canonical: !x built two ways is one handle");
        b.check_canonical();
    }

    #[test]
    fn not_performs_zero_mk_calls() {
        let (mut b, x, y, z) = setup3();
        let (fx, fy, fz) = (b.var(x), b.var(y), b.var(z));
        let t = b.and(fx, fy);
        let f = b.xor(t, fz);
        let mk_before = b.mk_calls();
        let stats_before = b.stats();
        let nf = b.not(f);
        assert_eq!(b.mk_calls(), mk_before, "not() must perform zero mk calls");
        assert_eq!(
            b.stats().cache_lookups,
            stats_before.cache_lookups,
            "not() must not even probe the operation cache"
        );
        assert_ne!(nf, f);
        for bits in 0..8u32 {
            let assign = |v: Var| bits & (1 << v.0) != 0;
            assert_eq!(b.eval(nf, assign), !b.eval(f, assign), "bits={bits:03b}");
        }
    }

    #[test]
    fn double_negation_is_identity() {
        let (mut b, x, y, z) = setup3();
        let (fx, fy, fz) = (b.var(x), b.var(y), b.var(z));
        let t = b.or(fx, fy);
        let f = b.iff(t, fz);
        let n1 = b.not(f);
        let n2 = b.not(n1);
        assert_eq!(n2, f, "double negation must be the identity handle");
        assert_eq!(b.not(NodeRef::TRUE), NodeRef::FALSE);
        assert_eq!(b.not(NodeRef::FALSE), NodeRef::TRUE);
    }

    #[test]
    fn complement_halves_live_nodes() {
        // A function and its negation must share every node: materializing
        // ¬f after f allocates nothing.
        let mut b = Bdd::new();
        let vars: Vec<Var> = (0..8).map(|i| b.new_var(format!("v{i}"))).collect();
        let mut f = NodeRef::FALSE;
        for w in vars.windows(2) {
            let a = b.var(w[0]);
            let c = b.var(w[1]);
            let t = b.and(a, c);
            f = b.xor(f, t);
        }
        let allocated = b.allocated_nodes();
        let nf = b.not(f);
        assert_eq!(b.allocated_nodes(), allocated, "¬f allocated new nodes");
        assert_eq!(b.size(&[f, nf]), b.size(&[f]), "f and ¬f share every node");
        b.check_canonical();
    }

    #[test]
    fn canonical_hash_consing() {
        let (mut b, x, y, _) = setup3();
        let fx = b.var(x);
        let fy = b.var(y);
        let f1 = b.and(fx, fy);
        let f2 = b.and(fy, fx);
        assert_eq!(f1, f2, "and is commutative up to node identity");
        let g1 = b.or(fx, fy);
        let nfx = b.not(fx);
        let nfy = b.not(fy);
        let ng = b.and(nfx, nfy);
        let g2 = b.not(ng);
        assert_eq!(g1, g2, "De Morgan holds up to node identity");
        b.check_canonical();
    }

    #[test]
    fn ite_truth_table() {
        let (mut b, x, y, z) = setup3();
        let (fx, fy, fz) = (b.var(x), b.var(y), b.var(z));
        let f = b.ite(fx, fy, fz);
        for bits in 0..8u32 {
            let assign = |v: Var| bits & (1 << v.0) != 0;
            let want = if assign(x) { assign(y) } else { assign(z) };
            assert_eq!(b.eval(f, assign), want, "bits={bits:03b}");
        }
    }

    #[test]
    fn xor_iff_implies() {
        let (mut b, x, y, _) = setup3();
        let (fx, fy) = (b.var(x), b.var(y));
        let fxor = b.xor(fx, fy);
        let fiff = b.iff(fx, fy);
        let fimp = b.implies(fx, fy);
        for bits in 0..4u32 {
            let assign = |v: Var| bits & (1 << v.0) != 0;
            assert_eq!(b.eval(fxor, assign), assign(x) ^ assign(y));
            assert_eq!(b.eval(fiff, assign), assign(x) == assign(y));
            assert_eq!(b.eval(fimp, assign), !assign(x) | assign(y));
        }
        assert_eq!(fiff, b.not(fxor), "iff is xor's complement handle");
    }

    #[test]
    fn commutative_ops_share_cache_slots() {
        let (mut b, x, y, _) = setup3();
        let (fx, fy) = (b.var(x), b.var(y));
        let _f = b.or(fx, fy);
        let hits_before = b.stats().cache_hits;
        let _g = b.or(fy, fx); // normalized to the same cache key
        assert!(
            b.stats().cache_hits > hits_before,
            "or(b, a) must hit the cache entry left by or(a, b)"
        );
        let _h = b.and(fx, fy);
        let hits_before = b.stats().cache_hits;
        let _k = b.and(fy, fx);
        assert!(
            b.stats().cache_hits > hits_before,
            "and(b, a) must hit the cache entry left by and(a, b)"
        );
    }

    #[test]
    fn negated_ops_share_cache_slots() {
        // Complement-edge normalization folds and/or through De Morgan onto
        // one canonical ITE triple, so or(¬a, ¬b) must hit the cache entry
        // left by and(a, b).
        let (mut b, x, y, _) = setup3();
        let (fx, fy) = (b.var(x), b.var(y));
        let conj = b.and(fx, fy);
        let hits_before = b.stats().cache_hits;
        let (nx, ny) = (b.not(fx), b.not(fy));
        let disj = b.or(nx, ny);
        assert!(
            b.stats().cache_hits > hits_before,
            "or(!a, !b) must share and(a, b)'s cache entry"
        );
        assert_eq!(disj, b.not(conj));
    }

    #[test]
    fn restrict_and_exists() {
        let (mut b, x, y, _) = setup3();
        let (fx, fy) = (b.var(x), b.var(y));
        let f = b.and(fx, fy);
        let f_x1 = b.restrict(f, x, true);
        assert_eq!(f_x1, fy);
        let f_x0 = b.restrict(f, x, false);
        assert!(f_x0.is_false());
        let cx = b.cube([x]);
        let ex = b.exists_cube(f, cx);
        assert_eq!(ex, fy);
        let fa = b.forall_cube(f, cx);
        assert!(fa.is_false());
    }

    #[test]
    fn quantifier_duality_shares_memo_entries() {
        // ∃c. ¬f = ¬(∀c. f): the duality must hold up to handle identity.
        let (mut b, x, y, z) = setup3();
        let (fx, fy, fz) = (b.var(x), b.var(y), b.var(z));
        let t = b.and(fx, fy);
        let f = b.or(t, fz);
        let nf = b.not(f);
        for v in [x, y, z] {
            let c = b.cube([v]);
            let e = b.exists_cube(nf, c);
            let a = b.forall_cube(f, c);
            assert_eq!(e, b.not(a), "∃{v}.!f must equal !(∀{v}.f)");
        }
    }

    #[test]
    fn restrict_matches_evaluation() {
        let (mut b, x, y, z) = setup3();
        let (fx, fy, fz) = (b.var(x), b.var(y), b.var(z));
        let t = b.and(fx, fy);
        let u = b.xor(fy, fz);
        let f = b.or(t, u);
        for root in [f, b.not(f)] {
            for v in [x, y, z] {
                let r0 = b.restrict(root, v, false);
                let r1 = b.restrict(root, v, true);
                for bits in 0..8u32 {
                    let at = |w: Var| bits >> w.0 & 1 == 1;
                    let fixed = |val: bool| move |w: Var| if w == v { val } else { at(w) };
                    assert_eq!(b.eval(r0, at), b.eval(root, fixed(false)), "{v}=0");
                    assert_eq!(b.eval(r1, at), b.eval(root, fixed(true)), "{v}=1");
                }
                // Shannon expansion rebuilds the root.
                let fv = b.var(v);
                assert_eq!(b.ite(fv, r1, r0), root, "expansion at {v}");
            }
        }
    }

    #[test]
    fn level_primitives_split_and_rebuild_a_function() {
        let (mut b, x, y, z) = setup3();
        let (fx, fy, fz) = (b.var(x), b.var(y), b.var(z));
        let t = b.and(fy, fz);
        let f = b.xor(fx, t);
        assert_eq!(b.node_level(NodeRef::TRUE), 3);
        for root in [f, b.not(f), t] {
            let level = b.node_level(root);
            let v = b.var_at(level);
            let pair = |b: &mut Bdd, v| (b.restrict(root, v, false), b.restrict(root, v, true));
            assert_eq!(b.cofactors_at_level(root, level), pair(&mut b, v));
            // `t` sits below `x`, so it cofactors to itself there.
            assert_eq!(b.cofactors_at_level(root, 0), pair(&mut b, x));
            let (lo, hi) = b.cofactors_at_level(root, level);
            assert_eq!(b.node_at_level(level, lo, hi), root);
        }
    }

    #[test]
    #[should_panic(expected = "children must lie below the level")]
    fn node_at_level_rejects_a_child_at_or_above_the_level() {
        let (mut b, x, y, _) = setup3();
        let (fx, fy) = (b.var(x), b.var(y));
        let level = b.level(y);
        b.node_at_level(level, fx, fy);
    }

    #[test]
    fn restrict_memo_serves_repeat_calls() {
        // Build a function wide enough that the traversal count is
        // meaningful, then restrict it on a cold cache and again on the
        // warm one: the repeat stops at the root's memo entry.
        let mut b = Bdd::new();
        let vars: Vec<Var> = (0..10).map(|i| b.new_var(format!("v{i}"))).collect();
        let mut f = NodeRef::FALSE;
        for w in vars.windows(2) {
            let a = b.var(w[0]);
            let c = b.var(w[1]);
            let t = b.and(a, c);
            f = b.xor(f, t);
        }
        let v = vars[9]; // bottom variable: every node is above it
        b.clear_cache();
        let before = b.stats().op_visits;
        let cold = b.restrict(f, v, false);
        let cold_visits = b.stats().op_visits - before;
        let before = b.stats().op_visits;
        let warm = b.restrict(f, v, false);
        let warm_visits = b.stats().op_visits - before;
        assert_eq!(warm, cold);
        assert!(
            cold_visits > 10,
            "cold pass visits every node: {cold_visits}"
        );
        assert_eq!(warm_visits, 1, "warm pass must hit the root's memo entry");
    }

    #[test]
    fn support_is_essential_dependence() {
        let (mut b, x, y, z) = setup3();
        let (fx, fy, fz) = (b.var(x), b.var(y), b.var(z));
        // f = x·y + x·!y = x : support must not include y.
        let nfy = b.not(fy);
        let a = b.and(fx, fy);
        let c = b.and(fx, nfy);
        let f = b.or(a, c);
        assert_eq!(b.support(f), vec![x]);
        let g = b.and(fy, fz);
        assert_eq!(b.support(g), vec![y, z]);
        let ng = b.not(g);
        assert_eq!(
            b.support(ng),
            vec![y, z],
            "support ignores the complement bit"
        );
    }

    #[test]
    fn sat_count_small() {
        let (mut b, x, y, z) = setup3();
        let (fx, fy, fz) = (b.var(x), b.var(y), b.var(z));
        assert_eq!(b.sat_count(NodeRef::TRUE), 8);
        assert_eq!(b.sat_count(NodeRef::FALSE), 0);
        assert_eq!(b.sat_count(fx), 4);
        let f = b.and(fx, fy);
        assert_eq!(b.sat_count(f), 2);
        let g = b.or_all([fx, fy, fz]);
        assert_eq!(b.sat_count(g), 7);
        let h = b.xor(fx, fy);
        assert_eq!(b.sat_count(h), 4);
        let nh = b.not(h);
        assert_eq!(b.sat_count(nh), 4, "complement counts the complement set");
        let nf = b.not(f);
        assert_eq!(b.sat_count(nf), 6);
    }

    #[test]
    fn sat_count_at_the_u128_boundary() {
        // 127 variables: every count fits in u128.
        let mut b = Bdd::new();
        let vars: Vec<Var> = (0..127).map(|i| b.new_var(format!("v{i}"))).collect();
        assert_eq!(b.checked_sat_count(NodeRef::TRUE), Some(1u128 << 127));
        let fx = b.var(vars[0]);
        assert_eq!(b.checked_sat_count(fx), Some(1u128 << 126));

        // 128 variables: the tautology's count (2^128) overflows, but
        // narrower functions still fit exactly.
        let mut b = Bdd::new();
        let vars: Vec<Var> = (0..128).map(|i| b.new_var(format!("v{i}"))).collect();
        assert_eq!(b.checked_sat_count(NodeRef::TRUE), None);
        assert_eq!(b.sat_count(NodeRef::TRUE), u128::MAX, "saturates, no panic");
        assert_eq!(b.checked_sat_count(NodeRef::FALSE), Some(0));
        let fx = b.var(vars[0]);
        assert_eq!(b.checked_sat_count(fx), Some(1u128 << 127));
        let nfx = b.not(fx);
        let taut = b.or(fx, nfx);
        assert_eq!(b.checked_sat_count(taut), None);
    }

    #[test]
    fn sat_count_over_a_variable_subset_ignores_the_rest() {
        // 200 variables, of which the counted set is every fourth one:
        // the full count of `v0 ∨ v8` overflows, the subset count is exact
        // even with the counted variables interleaved with uncounted ones.
        let mut b = Bdd::new();
        let vars: Vec<Var> = (0..200).map(|i| b.new_var(format!("v{i}"))).collect();
        let counted: Vec<Var> = vars.iter().copied().step_by(4).collect();
        let (f0, f8) = (b.var(vars[0]), b.var(vars[8]));
        let f = b.or(f0, f8);
        assert_eq!(b.checked_sat_count(f), None);
        assert_eq!(b.checked_sat_count_over(f, &counted), Some(3 << 48));
        let nf = b.not(f);
        assert_eq!(b.checked_sat_count_over(nf, &counted), Some(1 << 48));
        assert_eq!(
            b.checked_sat_count_over(NodeRef::TRUE, &counted),
            Some(1 << 50)
        );
        assert_eq!(b.checked_sat_count_over(NodeRef::FALSE, &counted), Some(0));
        // Over every variable it is the ordinary count.
        let (mut b, x, y, _) = setup3();
        let (fx, fy) = (b.var(x), b.var(y));
        let g = b.xor(fx, fy);
        let all = b.order();
        assert_eq!(b.checked_sat_count_over(g, &all), b.checked_sat_count(g));
    }

    #[test]
    #[should_panic(expected = "misses a support variable")]
    fn sat_count_over_a_set_missing_a_support_variable_panics() {
        let (mut b, x, y, _) = setup3();
        let (fx, fy) = (b.var(x), b.var(y));
        let f = b.and(fx, fy);
        b.checked_sat_count_over(f, &[x]);
    }

    #[test]
    fn pick_cube_satisfies() {
        let (mut b, x, y, _) = setup3();
        let (fx, fy) = (b.var(x), b.var(y));
        let nfx = b.not(fx);
        let f = b.and(nfx, fy);
        let cube = b.pick_cube(f).unwrap();
        let assign = |v: Var| cube.iter().any(|&(cv, val)| cv == v && val);
        assert!(b.eval(f, assign));
        assert_eq!(b.pick_cube(NodeRef::FALSE), None);
        // A witness from a complemented handle satisfies the complement.
        let nf = b.not(f);
        let ncube = b.pick_cube(nf).unwrap();
        let nassign = |v: Var| ncube.iter().any(|&(cv, val)| cv == v && val);
        assert!(b.eval(nf, nassign));
        assert!(!b.eval(f, nassign));
    }

    #[test]
    fn gc_frees_unreachable_keeps_reachable() {
        let (mut b, x, y, z) = setup3();
        let (fx, fy, fz) = (b.var(x), b.var(y), b.var(z));
        let keep = b.and(fx, fy);
        let _garbage = b.xor(fy, fz);
        let before = b.allocated_nodes();
        let freed = b.gc(&[keep]);
        assert!(freed > 0);
        assert_eq!(b.allocated_nodes(), before - freed);
        // keep still evaluates correctly after gc
        assert!(b.eval(keep, |_| true));
        // and rebuilding the collected structure lands on the same handle
        let fx2 = b.var(x);
        let fy2 = b.var(y);
        let again = b.and(fx2, fy2);
        assert_eq!(again, keep);
        b.check_canonical();
    }

    #[test]
    fn check_canonical_accepts_a_worked_manager() {
        let mut b = Bdd::new();
        let vars: Vec<Var> = (0..6).map(|i| b.new_var(format!("v{i}"))).collect();
        let mut f = NodeRef::TRUE;
        for w in vars.windows(2) {
            let a = b.var(w[0]);
            let c = b.nvar(w[1]);
            let t = b.or(a, c);
            f = b.and(f, t);
        }
        let g = b.xor(f, b.constant(true));
        b.check_canonical();
        // Free-list threading must survive a gc + re-allocation cycle.
        b.gc(&[f]);
        b.check_canonical();
        let _ = g; // g was collected; rebuild something over the free slots
        let lits: Vec<NodeRef> = vars.iter().map(|&v| b.var(v)).collect();
        let h = b.or_all(lits);
        assert!(!h.is_false());
        b.check_canonical();
    }

    #[test]
    fn unique_table_remove_keeps_probe_chains_intact() {
        // Stress the backward-shift deletion: insert a batch, remove half
        // in an interleaved pattern, and verify every survivor is still
        // found and every removed key is gone.
        let mut t = UniqueTable::new();
        let n = 512u32;
        for i in 0..n {
            t.insert(NodeRef(i), NodeRef(i + 1), NodeRef(1000 + i));
        }
        for i in (0..n).step_by(2) {
            assert_eq!(
                t.remove(NodeRef(i), NodeRef(i + 1)),
                Some(NodeRef(1000 + i))
            );
        }
        assert_eq!(t.len(), n as usize / 2);
        for i in 0..n {
            let got = t.get(NodeRef(i), NodeRef(i + 1));
            if i % 2 == 0 {
                assert_eq!(got, None, "removed key {i} must be gone");
            } else {
                assert_eq!(got, Some(NodeRef(1000 + i)), "survivor {i} must be found");
            }
        }
        // Re-inserting removed keys must work and not duplicate.
        for i in (0..n).step_by(2) {
            assert_eq!(
                t.insert(NodeRef(i), NodeRef(i + 1), NodeRef(2000 + i)),
                None
            );
        }
        assert_eq!(t.len(), n as usize);
    }

    #[test]
    fn unique_table_drain_takes_matches_and_keeps_the_rest_findable() {
        let mut t = UniqueTable::new();
        let n = 512u32;
        for i in 0..n {
            t.insert(NodeRef(i), NodeRef(i + 1), NodeRef(1000 + i));
        }
        let (mut taken, mut kept) = (Vec::new(), Vec::new());
        t.drain_where(|lo, _| lo.0 % 3 == 0, &mut taken, &mut kept);
        taken.sort();
        let want: Vec<_> = (0..n)
            .filter(|i| i % 3 == 0)
            .map(|i| (NodeRef(1000 + i), NodeRef(i), NodeRef(i + 1)))
            .collect();
        assert_eq!(taken, want);
        assert_eq!(t.len(), n as usize - want.len());
        for i in 0..n {
            let got = t.get(NodeRef(i), NodeRef(i + 1));
            assert_eq!(got, (i % 3 != 0).then_some(NodeRef(1000 + i)), "key {i}");
        }
    }

    #[test]
    fn op_cache_generation_invalidation() {
        let mut c = OpCache::new();
        c.insert(OP_ITE, NodeRef(5), NodeRef(6), NodeRef(7), NodeRef(8));
        assert_eq!(
            c.lookup(OP_ITE, NodeRef(5), NodeRef(6), NodeRef(7)),
            Some(NodeRef(8))
        );
        c.invalidate();
        assert_eq!(c.lookup(OP_ITE, NodeRef(5), NodeRef(6), NodeRef(7)), None);
        assert_eq!(c.len, 0);
        // Entries written after invalidation are visible again.
        c.insert(OP_ITE, NodeRef(5), NodeRef(6), NodeRef(7), NodeRef(9));
        assert_eq!(
            c.lookup(OP_ITE, NodeRef(5), NodeRef(6), NodeRef(7)),
            Some(NodeRef(9))
        );
    }

    #[test]
    fn size_counts_shared_nodes_once() {
        let (mut b, x, y, _) = setup3();
        let (fx, fy) = (b.var(x), b.var(y));
        let f = b.and(fx, fy);
        let g = b.or(fx, fy);
        let both = b.size(&[f, g]);
        assert!(both <= b.size(&[f]) + b.size(&[g]));
        assert_eq!(b.size(&[NodeRef::TRUE]), 0);
    }

    #[test]
    fn var_metadata() {
        let (b, x, y, z) = setup3();
        assert_eq!(b.num_vars(), 3);
        assert_eq!(b.var_name(y), "y");
        assert_eq!(b.level(x), 0);
        assert_eq!(b.var_at(2), z);
        assert_eq!(b.order(), vec![x, y, z]);
    }

    #[test]
    fn rename_substitutes_variables() {
        let (mut b, x, y, z) = setup3();
        let (fx, fy) = (b.var(x), b.var(y));
        let f = b.and(fx, fy); // x & y
        let r = b.rename(f, &[(y, z)]); // -> x & z
        let fz = b.var(z);
        let expect = b.and(fx, fz);
        assert_eq!(r, expect);
        // Untouched variables and empty maps are identities.
        assert_eq!(b.rename(f, &[]), f);
        assert_eq!(b.rename(f, &[(z, z)]), f);
        // Renaming commutes with complement up to handle identity.
        let nf = b.not(f);
        let nr = b.rename(nf, &[(y, z)]);
        assert_eq!(nr, b.not(expect));
    }

    #[test]
    fn rename_is_simultaneous_and_order_independent() {
        let mut b = Bdd::new();
        // Next-state rail declared *before* its current rail: renaming must
        // move functions upward in the order correctly.
        let xn = b.new_var("x'");
        let yn = b.new_var("y'");
        let x = b.new_var("x");
        let y = b.new_var("y");
        let (fxn, fyn) = (b.var(xn), b.var(yn));
        let nyn = b.not(fyn);
        let f = b.and(fxn, nyn); // x' & !y'
        let r = b.rename(f, &[(xn, x), (yn, y)]);
        let (fx, fy) = (b.var(x), b.var(y));
        let nfy = b.not(fy);
        let expect = b.and(fx, nfy);
        assert_eq!(r, expect);
        // Truth table agrees under the variable swap.
        for bits in 0..4u32 {
            let val = |v: Var| (v == x && bits & 1 != 0) || (v == y && bits & 2 != 0);
            let val_next = |v: Var| (v == xn && bits & 1 != 0) || (v == yn && bits & 2 != 0);
            assert_eq!(b.eval(r, val), b.eval(f, val_next));
        }
    }

    #[test]
    fn rename_preserves_sharing_with_xor() {
        let (mut b, x, y, z) = setup3();
        let (fx, fy) = (b.var(x), b.var(y));
        let f = b.xor(fx, fy);
        let g = b.rename(f, &[(x, z)]);
        let fz = b.var(z);
        let expect = b.xor(fz, fy);
        assert_eq!(g, expect);
        assert_eq!(b.support(g), vec![y, z]);
    }
}
