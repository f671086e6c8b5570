//! The B+tree: sorted key → u64 map with linked leaves.
//!
//! This is the index structure §5.3 puts at the heart of OLTP ("index-bound,
//! spending in some cases 40 % or more of total transaction time traversing
//! various index structures"). Design follows the paper's division of labor:
//!
//! * probes are concurrency-free — in DORA, "virtually all concurrency
//!   control issues are resolved before a request ever reaches the tree" —
//!   so the tree is a plain single-writer structure;
//! * "complex operations, such as space allocation, inode splits, and index
//!   reorganization, are handled in software": splits/merges/borrows are
//!   implemented here and *reported* in the [`Footprint`] so the engine can
//!   price them on the CPU even when probes run on the FPGA;
//! * high branching factors keep inner levels memory-resident.
//!
//! Nodes live in an arena (`Vec<Node<K>>` + free list), which doubles as the
//! model of the FPGA-side index memory for the probe engine.

use crate::key::TreeKey;

/// Sentinel node id.
pub const NIL: u32 = u32::MAX;

/// Cost/shape footprint of one tree operation, consumed by the engine's
/// cost model (§5.3's "load-compare-branch triplets").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Footprint {
    /// Inner nodes visited.
    pub inner_visited: u32,
    /// Leaf nodes visited.
    pub leaves_visited: u32,
    /// Key comparisons performed (binary search steps × compare cost).
    pub comparisons: u32,
    /// Node splits performed (software SMOs).
    pub splits: u32,
    /// Node merges performed.
    pub merges: u32,
    /// Borrow/rotation rebalances performed.
    pub borrows: u32,
}

impl Footprint {
    /// Total nodes visited (≈ dependent memory accesses on the probe path).
    pub fn nodes_visited(&self) -> u32 {
        self.inner_visited + self.leaves_visited
    }

    /// Merge another footprint into this one.
    pub fn merge_from(&mut self, o: Footprint) {
        self.inner_visited += o.inner_visited;
        self.leaves_visited += o.leaves_visited;
        self.comparisons += o.comparisons;
        self.splits += o.splits;
        self.merges += o.merges;
        self.borrows += o.borrows;
    }
}

/// An in-progress root-to-leaf descent: where [`BTree::step`] and
/// [`BTree::finish`] stand. Opaque — node ids never leave the crate.
#[derive(Debug, Clone, Copy)]
pub struct Cursor {
    node: u32,
}

#[derive(Debug, Clone)]
enum Node<K> {
    Inner {
        keys: Vec<K>,
        children: Vec<u32>,
    },
    Leaf {
        keys: Vec<K>,
        vals: Vec<u64>,
        next: u32,
    },
    /// Free-list entry; payload is the next free id.
    Free(u32),
}

enum Ins<K> {
    Done(Option<u64>),
    Split {
        sep: K,
        right: u32,
        old: Option<u64>,
    },
}

/// A B+tree mapping keys to `u64` payloads (packed `RecordId`s from
/// `bionic-storage`, or inline values).
///
/// ```
/// use bionic_btree::BTree;
///
/// let mut index = BTree::new();
/// index.insert(42i64, 4200);
/// let (value, footprint) = index.get(&42);
/// assert_eq!(value, Some(4200));
/// assert_eq!(footprint.nodes_visited(), 1); // root leaf only
/// index.check_invariants().unwrap();
/// ```
#[derive(Debug, Clone)]
pub struct BTree<K> {
    nodes: Vec<Node<K>>,
    free_head: u32,
    root: u32,
    height: u32,
    order: usize,
    len: usize,
    /// Structural mutation counter: bumped by every `&mut self` entry
    /// point, so callers can cache derived quantities (e.g. byte totals)
    /// and recompute only when the tree has actually changed.
    version: u64,
}

fn bsearch_steps(n: usize) -> u32 {
    (usize::BITS - n.leading_zeros()).max(1)
}

/// `keys.binary_search(k)` for strictly increasing `keys`, started from
/// [`TreeKey::guess`]: read the guessed slot, gallop away from it (1, 2,
/// 4, … slots) until `k` is bracketed, then bisect inside the bracket. On
/// the near-linear packed integer keys of the table indexes the guess
/// usually is the slot, so a probe costs one or two comparisons instead
/// of ⌈log₂ n⌉ dependent ones; a bad guess still costs O(log n). Keys
/// without a guess bisect the whole node.
#[inline]
fn position<K: TreeKey>(keys: &[K], k: &K) -> Result<usize, usize> {
    let found = match (keys.first(), keys.last()) {
        (Some(first), Some(last)) => match K::guess(first, last, k, keys.len()) {
            Some(g) => gallop(keys, k, g),
            None => keys.binary_search(k),
        },
        _ => Err(0),
    };
    debug_assert_eq!(found, keys.binary_search(k));
    found
}

/// [`position`] from slot `g < keys.len()`.
#[inline]
fn gallop<K: Ord>(keys: &[K], k: &K, g: usize) -> Result<usize, usize> {
    use std::cmp::Ordering;
    // `lo..hi` is the bracket: everything before `lo` is below `k`,
    // everything from `hi` on is above it.
    let (lo, hi) = match keys[g].cmp(k) {
        Ordering::Equal => return Ok(g),
        Ordering::Less => {
            let (mut lo, mut step) = (g + 1, 1);
            loop {
                let probe = g + step;
                if probe >= keys.len() {
                    break (lo, keys.len());
                }
                if keys[probe] >= *k {
                    break (lo, probe + 1);
                }
                lo = probe + 1;
                step *= 2;
            }
        }
        Ordering::Greater => {
            let (mut hi, mut step) = (g, 1);
            loop {
                if step > g {
                    break (0, hi);
                }
                let probe = g - step;
                if keys[probe] <= *k {
                    break (probe, hi);
                }
                hi = probe;
                step *= 2;
            }
        }
    };
    match keys[lo..hi].binary_search(k) {
        Ok(i) => Ok(lo + i),
        Err(i) => Err(lo + i),
    }
}

impl<K: TreeKey> BTree<K> {
    /// Create an empty tree. `order` is the maximum keys per node (≥ 4).
    /// §5.3 motivates large orders ("branching factors of several hundred to
    /// a few thousand"); the default constructor uses 256.
    pub fn with_order(order: usize) -> Self {
        assert!(order >= 4, "order must be >= 4");
        let mut t = BTree {
            nodes: Vec::new(),
            free_head: NIL,
            root: NIL,
            height: 1,
            order,
            len: 0,
            version: 0,
        };
        t.root = t.alloc(Node::Leaf {
            keys: Vec::new(),
            vals: Vec::new(),
            next: NIL,
        });
        t
    }

    /// An empty tree with the default order of 256.
    pub fn new() -> Self {
        Self::with_order(256)
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the tree empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Tree height (1 = the root is a leaf).
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Maximum keys per node.
    pub fn order(&self) -> usize {
        self.order
    }

    /// Number of allocated (live) nodes.
    pub fn node_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| !matches!(n, Node::Free(_)))
            .count()
    }

    /// Approximate resident bytes of the index (key bytes + payload +
    /// child pointers) — what must fit in FPGA memory for hardware probes.
    pub fn approx_bytes(&self) -> usize {
        let key_bytes = |keys: &[K]| match K::FIXED_ENCODED_LEN {
            Some(n) => keys.len() * n,
            None => keys.iter().map(TreeKey::encoded_len).sum::<usize>(),
        };
        let mut total = 0;
        for n in &self.nodes {
            total += match n {
                Node::Inner { keys, children } => key_bytes(keys) + children.len() * 4,
                Node::Leaf { keys, vals, .. } => key_bytes(keys) + vals.len() * 8 + 4,
                Node::Free(_) => 0,
            };
        }
        total
    }

    /// Structural mutation counter (see the field docs): equal values
    /// guarantee the tree has not changed since the counter was read.
    pub fn version(&self) -> u64 {
        self.version
    }

    fn min_keys(&self) -> usize {
        self.order / 2
    }

    fn alloc(&mut self, node: Node<K>) -> u32 {
        if self.free_head != NIL {
            let id = self.free_head;
            match self.nodes[id as usize] {
                Node::Free(next) => self.free_head = next,
                _ => unreachable!("free list corrupted"),
            }
            self.nodes[id as usize] = node;
            id
        } else {
            self.nodes.push(node);
            (self.nodes.len() - 1) as u32
        }
    }

    fn dealloc(&mut self, id: u32) {
        self.nodes[id as usize] = Node::Free(self.free_head);
        self.free_head = id;
    }

    /// Index of the child to descend into: equal keys go right.
    fn locate_child(keys: &[K], k: &K) -> usize {
        match position(keys, k) {
            Ok(i) => i + 1,
            Err(i) => i,
        }
    }

    fn compare_cost_of(keys: &[K], k: &K) -> u32 {
        bsearch_steps(keys.len()) * k.compare_cost()
    }

    /// Start a descent at the root. The cursor is valid until the next
    /// `&mut self` call (compare [`BTree::version`]).
    pub fn cursor(&self) -> Cursor {
        Cursor { node: self.root }
    }

    /// Move `cur` one inner level toward `k`'s leaf, adding that level to
    /// `fp`. Returns `false`, touching neither, once `cur` stands on a leaf.
    ///
    /// One call is one node's worth of dependent loads, so a caller holding
    /// many cursors can step them all one level per pass and let the core
    /// overlap the misses — descents of different keys are independent.
    #[inline]
    pub fn step(&self, cur: &mut Cursor, k: &K, fp: &mut Footprint) -> bool {
        match &self.nodes[cur.node as usize] {
            Node::Inner { keys, children } => {
                fp.inner_visited += 1;
                fp.comparisons += Self::compare_cost_of(keys, k);
                cur.node = children[Self::locate_child(keys, k)];
                true
            }
            Node::Leaf { .. } => false,
            Node::Free(_) => unreachable!("descended into free node"),
        }
    }

    /// Finish the descent from wherever `cur` stands — any levels still
    /// below it, then the leaf lookup — adding what it visits to `fp`.
    #[inline]
    pub fn finish(&self, mut cur: Cursor, k: &K, fp: &mut Footprint) -> Option<u64> {
        while self.step(&mut cur, k, fp) {}
        let Node::Leaf { keys, vals, .. } = &self.nodes[cur.node as usize] else {
            unreachable!("step stops only on a leaf")
        };
        fp.leaves_visited += 1;
        fp.comparisons += Self::compare_cost_of(keys, k);
        position(keys, k).ok().map(|i| vals[i])
    }

    /// Point lookup.
    pub fn get(&self, k: &K) -> (Option<u64>, Footprint) {
        let mut fp = Footprint::default();
        let v = self.finish(self.cursor(), k, &mut fp);
        (v, fp)
    }

    /// Insert or replace; returns the previous value if any.
    pub fn insert(&mut self, k: K, v: u64) -> (Option<u64>, Footprint) {
        self.version += 1;
        let mut fp = Footprint::default();
        let root = self.root;
        match self.insert_rec(root, k, v, &mut fp) {
            Ins::Done(old) => {
                if old.is_none() {
                    self.len += 1;
                }
                (old, fp)
            }
            Ins::Split { sep, right, old } => {
                let new_root = self.alloc(Node::Inner {
                    keys: vec![sep],
                    children: vec![self.root, right],
                });
                self.root = new_root;
                self.height += 1;
                if old.is_none() {
                    self.len += 1;
                }
                (old, fp)
            }
        }
    }

    fn insert_rec(&mut self, id: u32, k: K, v: u64, fp: &mut Footprint) -> Ins<K> {
        let inner_step = match &self.nodes[id as usize] {
            Node::Inner { keys, children } => {
                fp.inner_visited += 1;
                fp.comparisons += Self::compare_cost_of(keys, &k);
                let idx = Self::locate_child(keys, &k);
                Some((idx, children[idx]))
            }
            Node::Leaf { keys, .. } => {
                fp.leaves_visited += 1;
                fp.comparisons += Self::compare_cost_of(keys, &k);
                None
            }
            Node::Free(_) => unreachable!("descended into free node"),
        };

        match inner_step {
            None => {
                // Leaf insert.
                let order = self.order;
                let (old, needs_split) = {
                    let Node::Leaf { keys, vals, .. } = &mut self.nodes[id as usize] else {
                        unreachable!()
                    };
                    let old = match position(keys, &k) {
                        Ok(i) => Some(std::mem::replace(&mut vals[i], v)),
                        Err(i) => {
                            keys.insert(i, k);
                            vals.insert(i, v);
                            None
                        }
                    };
                    (old, keys.len() > order)
                };
                if !needs_split {
                    return Ins::Done(old);
                }
                fp.splits += 1;
                let (sep, right) = self.split_leaf(id);
                Ins::Split { sep, right, old }
            }
            Some((idx, child)) => match self.insert_rec(child, k, v, fp) {
                Ins::Done(old) => Ins::Done(old),
                Ins::Split { sep, right, old } => {
                    let order = self.order;
                    let needs_split = {
                        let Node::Inner { keys, children } = &mut self.nodes[id as usize] else {
                            unreachable!()
                        };
                        keys.insert(idx, sep);
                        children.insert(idx + 1, right);
                        keys.len() > order
                    };
                    if !needs_split {
                        return Ins::Done(old);
                    }
                    fp.splits += 1;
                    let (sep_up, right_id) = self.split_inner(id);
                    Ins::Split {
                        sep: sep_up,
                        right: right_id,
                        old,
                    }
                }
            },
        }
    }

    fn split_leaf(&mut self, id: u32) -> (K, u32) {
        let (rkeys, rvals, old_next) = {
            let Node::Leaf { keys, vals, next } = &mut self.nodes[id as usize] else {
                unreachable!()
            };
            let mid = keys.len() / 2;
            (keys.split_off(mid), vals.split_off(mid), *next)
        };
        let sep = rkeys[0].clone();
        let right = self.alloc(Node::Leaf {
            keys: rkeys,
            vals: rvals,
            next: old_next,
        });
        let Node::Leaf { next, .. } = &mut self.nodes[id as usize] else {
            unreachable!()
        };
        *next = right;
        (sep, right)
    }

    fn split_inner(&mut self, id: u32) -> (K, u32) {
        let (sep, rkeys, rchildren) = {
            let Node::Inner { keys, children } = &mut self.nodes[id as usize] else {
                unreachable!()
            };
            let mid = keys.len() / 2;
            let rkeys = keys.split_off(mid + 1);
            let sep = keys.pop().expect("inner split of tiny node");
            let rchildren = children.split_off(mid + 1);
            (sep, rkeys, rchildren)
        };
        let right = self.alloc(Node::Inner {
            keys: rkeys,
            children: rchildren,
        });
        (sep, right)
    }

    /// Remove a key; returns its value if present.
    pub fn remove(&mut self, k: &K) -> (Option<u64>, Footprint) {
        self.version += 1;
        let mut fp = Footprint::default();
        let root = self.root;
        let (old, _under) = self.remove_rec(root, k, &mut fp);
        if old.is_some() {
            self.len -= 1;
        }
        // Collapse the root if it became a pass-through inner node.
        if let Node::Inner { keys, children } = &self.nodes[self.root as usize] {
            if keys.is_empty() {
                let only = children[0];
                let old_root = self.root;
                self.root = only;
                self.dealloc(old_root);
                self.height -= 1;
            }
        }
        (old, fp)
    }

    fn remove_rec(&mut self, id: u32, k: &K, fp: &mut Footprint) -> (Option<u64>, bool) {
        let inner_step = match &self.nodes[id as usize] {
            Node::Inner { keys, children } => {
                fp.inner_visited += 1;
                fp.comparisons += Self::compare_cost_of(keys, k);
                let idx = Self::locate_child(keys, k);
                Some((idx, children[idx]))
            }
            Node::Leaf { keys, .. } => {
                fp.leaves_visited += 1;
                fp.comparisons += Self::compare_cost_of(keys, k);
                None
            }
            Node::Free(_) => unreachable!("descended into free node"),
        };

        match inner_step {
            None => {
                let min = self.min_keys();
                let is_root = id == self.root;
                let Node::Leaf { keys, vals, .. } = &mut self.nodes[id as usize] else {
                    unreachable!()
                };
                match position(keys, k) {
                    Ok(i) => {
                        keys.remove(i);
                        let v = vals.remove(i);
                        (Some(v), !is_root && keys.len() < min)
                    }
                    Err(_) => (None, false),
                }
            }
            Some((idx, child)) => {
                let (old, under) = self.remove_rec(child, k, fp);
                if under {
                    self.fix_underflow(id, idx, fp);
                }
                let min = self.min_keys();
                let is_root = id == self.root;
                let Node::Inner { keys, .. } = &self.nodes[id as usize] else {
                    unreachable!()
                };
                (old, !is_root && keys.len() < min)
            }
        }
    }

    /// Take a node out of the arena for two-node surgery.
    fn take(&mut self, id: u32) -> Node<K> {
        std::mem::replace(&mut self.nodes[id as usize], Node::Free(NIL))
    }

    fn put(&mut self, id: u32, node: Node<K>) {
        self.nodes[id as usize] = node;
    }

    /// Repair an underflowing `children[idx]` of inner node `parent`.
    fn fix_underflow(&mut self, parent: u32, idx: usize, fp: &mut Footprint) {
        let (left_sib, right_sib, child) = {
            let Node::Inner { children, .. } = &self.nodes[parent as usize] else {
                unreachable!()
            };
            let left = if idx > 0 {
                Some(children[idx - 1])
            } else {
                None
            };
            let right = children.get(idx + 1).copied();
            (left, right, children[idx])
        };
        let min = self.min_keys();

        let sib_len = |n: &Node<K>| match n {
            Node::Inner { keys, .. } | Node::Leaf { keys, .. } => keys.len(),
            Node::Free(_) => 0,
        };

        // Prefer borrowing (cheap) over merging.
        if let Some(l) = left_sib {
            if sib_len(&self.nodes[l as usize]) > min {
                self.borrow_from_left(parent, idx, l, child);
                fp.borrows += 1;
                return;
            }
        }
        if let Some(r) = right_sib {
            if sib_len(&self.nodes[r as usize]) > min {
                self.borrow_from_right(parent, idx, child, r);
                fp.borrows += 1;
                return;
            }
        }
        if let Some(l) = left_sib {
            self.merge_nodes(parent, idx - 1, l, child);
            fp.merges += 1;
        } else if let Some(r) = right_sib {
            self.merge_nodes(parent, idx, child, r);
            fp.merges += 1;
        }
    }

    fn borrow_from_left(&mut self, parent: u32, idx: usize, left: u32, child: u32) {
        let mut lnode = self.take(left);
        let mut cnode = self.take(child);
        match (&mut lnode, &mut cnode) {
            (
                Node::Leaf {
                    keys: lk, vals: lv, ..
                },
                Node::Leaf {
                    keys: ck, vals: cv, ..
                },
            ) => {
                let k = lk.pop().expect("borrow from empty left leaf");
                let v = lv.pop().expect("borrow from empty left leaf");
                ck.insert(0, k);
                cv.insert(0, v);
                let new_sep = ck[0].clone();
                let Node::Inner { keys, .. } = &mut self.nodes[parent as usize] else {
                    unreachable!()
                };
                keys[idx - 1] = new_sep;
            }
            (
                Node::Inner {
                    keys: lk,
                    children: lc,
                },
                Node::Inner {
                    keys: ck,
                    children: cc,
                },
            ) => {
                let Node::Inner { keys, .. } = &mut self.nodes[parent as usize] else {
                    unreachable!()
                };
                let sep = std::mem::replace(
                    &mut keys[idx - 1],
                    lk.pop().expect("borrow from empty left inner"),
                );
                ck.insert(0, sep);
                cc.insert(0, lc.pop().expect("borrow from empty left inner"));
            }
            _ => unreachable!("sibling type mismatch"),
        }
        self.put(left, lnode);
        self.put(child, cnode);
    }

    fn borrow_from_right(&mut self, parent: u32, idx: usize, child: u32, right: u32) {
        let mut cnode = self.take(child);
        let mut rnode = self.take(right);
        match (&mut cnode, &mut rnode) {
            (
                Node::Leaf {
                    keys: ck, vals: cv, ..
                },
                Node::Leaf {
                    keys: rk, vals: rv, ..
                },
            ) => {
                ck.push(rk.remove(0));
                cv.push(rv.remove(0));
                let new_sep = rk[0].clone();
                let Node::Inner { keys, .. } = &mut self.nodes[parent as usize] else {
                    unreachable!()
                };
                keys[idx] = new_sep;
            }
            (
                Node::Inner {
                    keys: ck,
                    children: cc,
                },
                Node::Inner {
                    keys: rk,
                    children: rc,
                },
            ) => {
                let Node::Inner { keys, .. } = &mut self.nodes[parent as usize] else {
                    unreachable!()
                };
                let sep = std::mem::replace(&mut keys[idx], rk.remove(0));
                ck.push(sep);
                cc.push(rc.remove(0));
            }
            _ => unreachable!("sibling type mismatch"),
        }
        self.put(child, cnode);
        self.put(right, rnode);
    }

    /// Merge `children[li+1]` into `children[li]`, removing separator `li`.
    fn merge_nodes(&mut self, parent: u32, li: usize, left: u32, right: u32) {
        let rnode = self.take(right);
        let sep = {
            let Node::Inner { keys, children } = &mut self.nodes[parent as usize] else {
                unreachable!()
            };
            children.remove(li + 1);
            keys.remove(li)
        };
        let mut lnode = self.take(left);
        match (&mut lnode, rnode) {
            (
                Node::Leaf {
                    keys: lk,
                    vals: lv,
                    next: ln,
                },
                Node::Leaf {
                    keys: rk,
                    vals: rv,
                    next: rn,
                },
            ) => {
                lk.extend(rk);
                lv.extend(rv);
                *ln = rn;
            }
            (
                Node::Inner {
                    keys: lk,
                    children: lc,
                },
                Node::Inner {
                    keys: rk,
                    children: rc,
                },
            ) => {
                lk.push(sep);
                lk.extend(rk);
                lc.extend(rc);
            }
            _ => unreachable!("sibling type mismatch"),
        }
        self.put(left, lnode);
        self.dealloc(right);
    }

    /// Batched point lookups in the style of PALM \[12\] — the "complex
    /// measure" §5.3 says software needs to hide probe latency. Keys are
    /// processed in sorted order and descents share their common path
    /// prefix, so n probes of nearby keys touch far fewer nodes than n
    /// independent [`BTree::get`] calls.
    ///
    /// Returns per-key results in the order of the (sorted, deduplicated)
    /// input, plus one aggregate footprint. The slice is sorted in place;
    /// duplicates are skipped during descent (equal keys always route to
    /// the same leaf) so no reallocation is needed.
    pub fn batch_get(&self, keys: &mut [K]) -> (Vec<(K, Option<u64>)>, Footprint) {
        keys.sort();
        let mut fp = Footprint::default();
        let mut out = Vec::with_capacity(keys.len());
        if keys.is_empty() {
            return (out, fp);
        }
        self.batch_rec(self.root, keys, &mut out, &mut fp);
        (out, fp)
    }

    /// [`BTree::batch_get`] without materializing the results: same sort,
    /// same descent, and an identical [`Footprint`] — for callers (the PALM
    /// batch planner) that only price the shared descent. `sort_unstable`
    /// is safe here because equal keys are interchangeable.
    pub fn batch_footprint(&self, keys: &mut [K]) -> Footprint {
        keys.sort_unstable();
        let mut fp = Footprint::default();
        if keys.is_empty() {
            return fp;
        }
        self.batch_fp_rec(self.root, keys, &mut fp);
        fp
    }

    fn batch_fp_rec(&self, id: u32, keys: &[K], fp: &mut Footprint) {
        match &self.nodes[id as usize] {
            Node::Leaf { keys: lk, .. } => {
                fp.leaves_visited += 1;
                for (i, k) in keys.iter().enumerate() {
                    if i > 0 && keys[i - 1] == *k {
                        continue;
                    }
                    fp.comparisons += Self::compare_cost_of(lk, k);
                }
            }
            Node::Inner { keys: ik, children } => {
                fp.inner_visited += 1;
                let mut start = 0usize;
                while start < keys.len() {
                    fp.comparisons += Self::compare_cost_of(ik, &keys[start]);
                    let child_idx = Self::locate_child(ik, &keys[start]);
                    let end = if child_idx == ik.len() {
                        keys.len()
                    } else {
                        let sep = &ik[child_idx];
                        start + keys[start..].partition_point(|k| k < sep)
                    };
                    self.batch_fp_rec(children[child_idx], &keys[start..end], fp);
                    start = end;
                }
            }
            Node::Free(_) => unreachable!("descended into free node"),
        }
    }

    fn batch_rec(&self, id: u32, keys: &[K], out: &mut Vec<(K, Option<u64>)>, fp: &mut Footprint) {
        match &self.nodes[id as usize] {
            Node::Leaf { keys: lk, vals, .. } => {
                fp.leaves_visited += 1;
                for (i, k) in keys.iter().enumerate() {
                    // Adjacent duplicates (slice arrives sorted) collapse to
                    // one probe, matching the old sort+dedup behavior.
                    if i > 0 && keys[i - 1] == *k {
                        continue;
                    }
                    fp.comparisons += Self::compare_cost_of(lk, k);
                    out.push((k.clone(), position(lk, k).ok().map(|i| vals[i])));
                }
            }
            Node::Inner { keys: ik, children } => {
                fp.inner_visited += 1;
                // Partition the sorted batch across children in one pass.
                let mut start = 0usize;
                while start < keys.len() {
                    fp.comparisons += Self::compare_cost_of(ik, &keys[start]);
                    let child_idx = Self::locate_child(ik, &keys[start]);
                    // All batch keys routed to the same child share it.
                    let end = if child_idx == ik.len() {
                        keys.len()
                    } else {
                        let sep = &ik[child_idx];
                        start + keys[start..].partition_point(|k| k < sep)
                    };
                    self.batch_rec(children[child_idx], &keys[start..end], out, fp);
                    start = end;
                }
            }
            Node::Free(_) => unreachable!("descended into free node"),
        }
    }

    /// Visit entries with `lo <= key < hi` in order. Returns the footprint
    /// (one descent plus the leaf chain walked).
    pub fn range(&self, lo: &K, hi: &K, mut visit: impl FnMut(&K, u64)) -> Footprint {
        let mut fp = Footprint::default();
        if hi <= lo {
            return fp;
        }
        // Descend to the leaf containing lo.
        let mut cur = self.cursor();
        while self.step(&mut cur, lo, &mut fp) {}
        let mut id = cur.node;
        // Walk the leaf chain.
        loop {
            let Node::Leaf { keys, vals, next } = &self.nodes[id as usize] else {
                unreachable!()
            };
            fp.leaves_visited += 1;
            let start = position(keys, lo).unwrap_or_else(|i| i);
            fp.comparisons += Self::compare_cost_of(keys, lo);
            for i in start..keys.len() {
                if &keys[i] >= hi {
                    return fp;
                }
                visit(&keys[i], vals[i]);
            }
            if *next == NIL {
                return fp;
            }
            id = *next;
        }
    }

    /// Visit all entries in key order.
    pub fn scan_all(&self, mut visit: impl FnMut(&K, u64)) {
        let mut id = self.leftmost_leaf();
        loop {
            let Node::Leaf { keys, vals, next } = &self.nodes[id as usize] else {
                unreachable!()
            };
            for (k, v) in keys.iter().zip(vals) {
                visit(k, *v);
            }
            if *next == NIL {
                return;
            }
            id = *next;
        }
    }

    fn leftmost_leaf(&self) -> u32 {
        let mut id = self.root;
        loop {
            match &self.nodes[id as usize] {
                Node::Inner { children, .. } => id = children[0],
                Node::Leaf { .. } => return id,
                Node::Free(_) => unreachable!(),
            }
        }
    }

    /// Build a tree from sorted, duplicate-free `(key, value)` pairs at the
    /// given leaf fill factor — the bulk path the §5.6 overlay merge uses.
    pub fn bulk_load(pairs: Vec<(K, u64)>, order: usize, fill: f64) -> Self {
        assert!((0.1..=1.0).contains(&fill), "fill factor out of range");
        let mut tree = Self::with_order(order);
        if pairs.is_empty() {
            return tree;
        }
        for w in pairs.windows(2) {
            assert!(w[0].0 < w[1].0, "bulk_load requires sorted unique keys");
        }
        tree.len = pairs.len();
        let per_leaf = ((order as f64 * fill) as usize).clamp(tree.min_keys().max(1), order);

        // Build leaves.
        tree.nodes.clear();
        tree.free_head = NIL;
        let mut leaf_ids: Vec<u32> = Vec::new();
        let mut seps: Vec<K> = Vec::new();
        let chunks: Vec<&[(K, u64)]> = pairs.chunks(per_leaf).collect();
        // Avoid a dangling undersized last leaf violating min occupancy:
        // bulk loads with fill <= (order - min)/order can't underflow except
        // for the final chunk; merge a too-small tail into the previous leaf.
        let mut materialized: Vec<(Vec<K>, Vec<u64>)> = Vec::with_capacity(chunks.len());
        for c in &chunks {
            materialized.push((
                c.iter().map(|(k, _)| k.clone()).collect(),
                c.iter().map(|(_, v)| *v).collect(),
            ));
        }
        if materialized.len() > 1 {
            let last_len = materialized.last().unwrap().0.len();
            if last_len < tree.min_keys() {
                // Combine the undersized tail with its predecessor, then
                // keep one leaf if it fits, else split evenly (both halves
                // are >= (order+1)/2 >= min_keys).
                let (lk, lv) = materialized.pop().unwrap();
                let (mut pk, mut pv) = materialized.pop().unwrap();
                pk.extend(lk);
                pv.extend(lv);
                if pk.len() <= order {
                    materialized.push((pk, pv));
                } else {
                    let half = pk.len() / 2;
                    let rk = pk.split_off(half);
                    let rv = pv.split_off(half);
                    materialized.push((pk, pv));
                    materialized.push((rk, rv));
                }
            }
        }
        for (keys, vals) in materialized {
            if !leaf_ids.is_empty() {
                seps.push(keys[0].clone());
            }
            let id = tree.alloc(Node::Leaf {
                keys,
                vals,
                next: NIL,
            });
            leaf_ids.push(id);
        }
        for w in 0..leaf_ids.len().saturating_sub(1) {
            let next_id = leaf_ids[w + 1];
            let Node::Leaf { next, .. } = &mut tree.nodes[leaf_ids[w] as usize] else {
                unreachable!()
            };
            *next = next_id;
        }

        // Build inner levels bottom-up.
        let mut level_ids = leaf_ids;
        let mut level_seps = seps;
        let mut height = 1;
        while level_ids.len() > 1 {
            height += 1;
            let fanout = per_leaf + 1; // children per inner node
            let mut new_ids = Vec::new();
            let mut new_seps = Vec::new();
            let mut i = 0;
            while i < level_ids.len() {
                let remaining = level_ids.len() - i;
                // Avoid leaving an underflowing tail group: either absorb
                // the whole remainder into one node (a node holds up to
                // order+1 children) or shrink this group so the tail gets
                // at least min_keys+1 children.
                let take_children = if remaining <= fanout {
                    remaining
                } else if remaining - fanout < tree.min_keys() + 1 {
                    if remaining <= order + 1 {
                        remaining
                    } else {
                        remaining - (tree.min_keys() + 1)
                    }
                } else {
                    fanout
                };
                let children: Vec<u32> = level_ids[i..i + take_children].to_vec();
                let keys: Vec<K> = level_seps[i..i + take_children - 1].to_vec();
                if !new_ids.is_empty() {
                    new_seps.push(level_seps[i - 1].clone());
                }
                let id = tree.alloc(Node::Inner { keys, children });
                new_ids.push(id);
                i += take_children;
            }
            // level_seps between groups were consumed positionally: rebuild
            // by noting sep j sits between child j and j+1 of the old level.
            level_ids = new_ids;
            level_seps = new_seps;
        }
        tree.root = level_ids[0];
        tree.height = height;
        tree
    }

    /// Average leaf fill factor (live keys / order, across leaves) — the
    /// fragmentation signal a reorganization policy watches.
    pub fn avg_leaf_fill(&self) -> f64 {
        let mut leaves = 0usize;
        let mut keys = 0usize;
        for n in &self.nodes {
            if let Node::Leaf { keys: k, .. } = n {
                leaves += 1;
                keys += k.len();
            }
        }
        if leaves == 0 {
            0.0
        } else {
            keys as f64 / (leaves * self.order) as f64
        }
    }

    /// Rebuild the tree at the given fill factor — §5.3's "index
    /// reorganization" kept in software. Compacts fragmentation left by
    /// deletes, shrinks height when possible, and restores sequential leaf
    /// layout. O(n); run it from maintenance, not transactions.
    pub fn reorganize(&mut self, fill: f64) {
        let mut pairs = Vec::with_capacity(self.len);
        self.scan_all(|k, v| pairs.push((k.clone(), v)));
        let version = self.version + 1;
        *self = Self::bulk_load(pairs, self.order, fill);
        self.version = version;
    }

    /// Verify every structural invariant; returns a description of the
    /// first violation. Used by unit and property tests.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut leaf_depths = Vec::new();
        let mut count = 0usize;
        self.check_node(self.root, 1, None, None, &mut leaf_depths, &mut count)?;
        if let Some(&d) = leaf_depths.first() {
            if leaf_depths.iter().any(|&x| x != d) {
                return Err("leaves at differing depths".into());
            }
            if d != self.height {
                return Err(format!("height {} but leaf depth {d}", self.height));
            }
        }
        if count != self.len {
            return Err(format!("len {} but counted {count}", self.len));
        }
        // Leaf chain must visit all entries in strictly ascending order.
        let mut prev: Option<K> = None;
        let mut chain_count = 0usize;
        let mut id = self.leftmost_leaf();
        loop {
            let Node::Leaf { keys, next, .. } = &self.nodes[id as usize] else {
                return Err("leaf chain hit non-leaf".into());
            };
            for k in keys {
                if let Some(p) = &prev {
                    if p >= k {
                        return Err("leaf chain out of order".into());
                    }
                }
                prev = Some(k.clone());
                chain_count += 1;
            }
            if *next == NIL {
                break;
            }
            id = *next;
        }
        if chain_count != self.len {
            return Err(format!("chain count {chain_count} != len {}", self.len));
        }
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn check_node(
        &self,
        id: u32,
        depth: u32,
        lo: Option<&K>,
        hi: Option<&K>,
        leaf_depths: &mut Vec<u32>,
        count: &mut usize,
    ) -> Result<(), String> {
        match &self.nodes[id as usize] {
            Node::Free(_) => Err(format!("node {id} is free but reachable")),
            Node::Leaf { keys, vals, .. } => {
                if keys.len() != vals.len() {
                    return Err("leaf keys/vals length mismatch".into());
                }
                if keys.len() > self.order {
                    return Err("leaf overflow".into());
                }
                if id != self.root && keys.len() < self.min_keys() {
                    return Err(format!(
                        "leaf {id} underflow: {} < {}",
                        keys.len(),
                        self.min_keys()
                    ));
                }
                for w in keys.windows(2) {
                    if w[0] >= w[1] {
                        return Err("leaf keys not strictly sorted".into());
                    }
                }
                if let (Some(lo), Some(first)) = (lo, keys.first()) {
                    if first < lo {
                        return Err("leaf key below separator bound".into());
                    }
                }
                if let (Some(hi), Some(last)) = (hi, keys.last()) {
                    if last >= hi {
                        return Err("leaf key above separator bound".into());
                    }
                }
                leaf_depths.push(depth);
                *count += keys.len();
                Ok(())
            }
            Node::Inner { keys, children } => {
                if children.len() != keys.len() + 1 {
                    return Err("inner fanout mismatch".into());
                }
                if keys.len() > self.order {
                    return Err("inner overflow".into());
                }
                if id != self.root && keys.len() < self.min_keys() {
                    return Err("inner underflow".into());
                }
                if id == self.root && keys.is_empty() {
                    return Err("pass-through root".into());
                }
                for w in keys.windows(2) {
                    if w[0] >= w[1] {
                        return Err("inner keys not strictly sorted".into());
                    }
                }
                for (i, &c) in children.iter().enumerate() {
                    let clo = if i == 0 { lo } else { Some(&keys[i - 1]) };
                    let chi = if i == keys.len() { hi } else { Some(&keys[i]) };
                    self.check_node(c, depth + 1, clo, chi, leaf_depths, count)?;
                }
                Ok(())
            }
        }
    }
}

impl<K: TreeKey> Default for BTree<K> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::StrKey;

    /// `position` against `binary_search` on one node: every key, both
    /// neighbours of every key, the middle of every gap and both ends of
    /// the key type, from every guess the key type could make.
    fn check_position<K: TreeKey + std::fmt::Debug>(keys: &[K], probes: &[K]) {
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "{keys:?}");
        for p in probes.iter().chain(keys) {
            let want = keys.binary_search(p);
            assert_eq!(position(keys, p), want, "keys {keys:?} probe {p:?}");
            for g in 0..keys.len() {
                assert_eq!(
                    gallop(keys, p, g),
                    want,
                    "keys {keys:?} probe {p:?} from {g}"
                );
            }
        }
    }

    fn int_probes(keys: &[i64]) -> Vec<i64> {
        let mut probes = vec![i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX - 1, i64::MAX];
        for &k in keys {
            probes.extend([k.saturating_sub(1), k.saturating_add(1)]);
        }
        for w in keys.windows(2) {
            probes.push(w[0] / 2 + w[1] / 2);
        }
        probes
    }

    fn check_int_node(keys: &[i64]) {
        check_position(keys, &int_probes(keys));
        let unsigned: Vec<u64> = keys.iter().map(|&k| (k as u64) ^ (1 << 63)).collect();
        let probes: Vec<u64> = int_probes(keys)
            .iter()
            .map(|&k| (k as u64) ^ (1 << 63))
            .collect();
        check_position(&unsigned, &probes);
    }

    #[test]
    fn position_is_binary_search() {
        let clustered: Vec<i64> = (1_000..1_256).collect();
        // Mixed-radix packed keys, as the TPC-C and TATP indexes build them.
        let packed: Vec<i64> = (0..4i64)
            .flat_map(|w| (0..10).flat_map(move |d| (0..6).map(move |c| (w * 10 + d) * 3_000 + c)))
            .collect();
        let geometric: Vec<i64> = (0..63).map(|b| 1i64 << b).collect();
        let huge_gaps = [i64::MIN, -(1 << 40), -7, 0, 3, 1 << 40, i64::MAX];
        let near_min: Vec<i64> = (0..9).map(|i| i64::MIN + i * i).collect();
        let near_max: Vec<i64> = (0..9).rev().map(|i| i64::MAX - i * i).collect();
        let ends = [i64::MIN, i64::MAX];
        for keys in [
            &[][..],
            &[0],
            &[i64::MIN],
            &[i64::MAX],
            &ends,
            &clustered,
            &packed,
            &geometric,
            &huge_gaps,
            &near_min,
            &near_max,
        ] {
            check_int_node(keys);
        }
        // No guess: string keys bisect.
        let words: Vec<StrKey> = ["", "a", "ab", "b", "ba", "zz"].map(StrKey::from).to_vec();
        let probes: Vec<StrKey> = ["", "0", "aa", "abc", "c", "zzz"]
            .map(StrKey::from)
            .to_vec();
        check_position(&words, &probes);
    }

    #[test]
    fn guesses_stay_in_the_node() {
        for n in [1usize, 2, 3, 255, 256] {
            for (first, last) in [(0i64, n as i64 - 1), (i64::MIN, i64::MAX), (-5, 1 << 50)] {
                if n > 1 && first == last {
                    continue;
                }
                for k in [
                    i64::MIN,
                    first,
                    first / 2 + last / 2,
                    last - 1,
                    last,
                    i64::MAX,
                ] {
                    let g = i64::guess(&first, &last, &k, n).unwrap();
                    assert!(g < n, "n {n} first {first} last {last} k {k}: {g}");
                }
            }
            let g = u64::guess(&0, &u64::MAX, &(u64::MAX - 1), n).unwrap();
            assert!(g < n, "n {n}: {g}");
        }
        // On an arithmetic progression the guess is the slot itself.
        let keys: Vec<i64> = (0..256).map(|i| 40 + 7 * i).collect();
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(i64::guess(&keys[0], &keys[255], k, 256), Some(i));
        }
        assert_eq!(
            StrKey::guess(&"a".into(), &"b".into(), &"ab".into(), 2),
            None
        );
    }

    #[test]
    fn empty_tree_lookups() {
        let t: BTree<i64> = BTree::new();
        assert!(t.is_empty());
        assert_eq!(t.get(&5).0, None);
        t.check_invariants().unwrap();
    }

    #[test]
    fn insert_get_small() {
        let mut t = BTree::with_order(4);
        for i in 0..20i64 {
            t.insert(i, (i * 10) as u64);
        }
        assert_eq!(t.len(), 20);
        for i in 0..20i64 {
            assert_eq!(t.get(&i).0, Some((i * 10) as u64));
        }
        assert_eq!(t.get(&99).0, None);
        t.check_invariants().unwrap();
    }

    #[test]
    fn replace_returns_old_value() {
        let mut t: BTree<i64> = BTree::new();
        assert_eq!(t.insert(1, 100).0, None);
        assert_eq!(t.insert(1, 200).0, Some(100));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(&1).0, Some(200));
    }

    #[test]
    fn grows_in_height_and_stays_balanced() {
        let mut t = BTree::with_order(4);
        for i in 0..1000i64 {
            t.insert(i, i as u64);
            if i % 100 == 0 {
                t.check_invariants().unwrap();
            }
        }
        assert!(t.height() >= 4, "height={}", t.height());
        t.check_invariants().unwrap();
    }

    #[test]
    fn reverse_and_shuffled_insert_orders() {
        let mut rev = BTree::with_order(6);
        for i in (0..500i64).rev() {
            rev.insert(i, i as u64);
        }
        rev.check_invariants().unwrap();

        // Deterministic shuffle via multiplicative hashing.
        let mut shuf = BTree::with_order(6);
        for i in 0..500u64 {
            let k = (i.wrapping_mul(0x9E3779B97F4A7C15) % 500) as i64;
            shuf.insert(k, k as u64);
        }
        shuf.check_invariants().unwrap();
        for i in 0..500i64 {
            assert_eq!(rev.get(&i).0, Some(i as u64));
        }
    }

    #[test]
    fn footprint_depth_matches_height() {
        let mut t = BTree::with_order(4);
        for i in 0..5000i64 {
            t.insert(i, i as u64);
        }
        let (_, fp) = t.get(&2500);
        assert_eq!(fp.nodes_visited(), t.height());
        assert_eq!(fp.leaves_visited, 1);
        assert!(fp.comparisons > 0);
    }

    #[test]
    fn high_order_trees_are_shallow() {
        // §5.3: high branching factors keep trees shallow and in memory.
        let mut t = BTree::with_order(256);
        for i in 0..100_000i64 {
            t.insert(i, i as u64);
        }
        assert!(t.height() <= 3, "height={}", t.height());
        t.check_invariants().unwrap();
    }

    #[test]
    fn remove_simple() {
        let mut t = BTree::with_order(4);
        for i in 0..100i64 {
            t.insert(i, i as u64);
        }
        for i in (0..100i64).step_by(2) {
            assert_eq!(t.remove(&i).0, Some(i as u64));
        }
        assert_eq!(t.len(), 50);
        for i in 0..100i64 {
            let expect = if i % 2 == 0 { None } else { Some(i as u64) };
            assert_eq!(t.get(&i).0, expect);
        }
        t.check_invariants().unwrap();
        assert_eq!(t.remove(&0).0, None, "double remove is a no-op");
    }

    #[test]
    fn remove_everything_collapses_to_empty_root() {
        let mut t = BTree::with_order(4);
        for i in 0..300i64 {
            t.insert(i, i as u64);
        }
        for i in 0..300i64 {
            t.remove(&i);
            if i % 37 == 0 {
                t.check_invariants().unwrap();
            }
        }
        assert!(t.is_empty());
        assert_eq!(t.height(), 1);
        t.check_invariants().unwrap();
    }

    #[test]
    fn remove_in_random_order_keeps_invariants() {
        let mut t = BTree::with_order(4);
        let n = 1000u64;
        for i in 0..n {
            t.insert(i as i64, i);
        }
        for i in 0..n {
            let k = (i.wrapping_mul(0x2545F4914F6CDD1D) % n) as i64;
            t.remove(&k);
            if i % 101 == 0 {
                t.check_invariants().unwrap();
            }
        }
        t.check_invariants().unwrap();
    }

    #[test]
    fn range_scan_inclusive_exclusive() {
        let mut t = BTree::with_order(8);
        for i in 0..100i64 {
            t.insert(i * 2, i as u64); // even keys 0..198
        }
        let mut seen = Vec::new();
        let fp = t.range(&10, &20, |k, _| seen.push(*k));
        assert_eq!(seen, vec![10, 12, 14, 16, 18]);
        assert!(fp.leaves_visited >= 1);
        // Empty and inverted ranges.
        let mut any = false;
        t.range(&11, &12, |_, _| any = true);
        assert!(!any);
        t.range(&20, &10, |_, _| any = true);
        assert!(!any);
    }

    #[test]
    fn range_scan_spans_leaves() {
        let mut t = BTree::with_order(4);
        for i in 0..200i64 {
            t.insert(i, i as u64);
        }
        let mut seen = 0;
        let fp = t.range(&0, &200, |_, _| seen += 1);
        assert_eq!(seen, 200);
        assert!(fp.leaves_visited > 10, "must walk the chain");
    }

    #[test]
    fn scan_all_in_order() {
        let mut t = BTree::with_order(4);
        for i in (0..500i64).rev() {
            t.insert(i, i as u64);
        }
        let mut prev = -1i64;
        let mut n = 0;
        t.scan_all(|k, v| {
            assert!(*k > prev);
            assert_eq!(*k as u64, v);
            prev = *k;
            n += 1;
        });
        assert_eq!(n, 500);
    }

    #[test]
    fn string_keys_work() {
        let mut t: BTree<StrKey> = BTree::with_order(8);
        let words = ["delta", "alpha", "echo", "bravo", "charlie", "foxtrot"];
        for (i, w) in words.iter().enumerate() {
            t.insert(StrKey::from(*w), i as u64);
        }
        assert_eq!(t.get(&StrKey::from("charlie")).0, Some(4));
        assert_eq!(t.get(&StrKey::from("zulu")).0, None);
        let mut order = Vec::new();
        t.scan_all(|k, _| order.push(String::from_utf8(k.0.clone()).unwrap()));
        assert_eq!(
            order,
            vec!["alpha", "bravo", "charlie", "delta", "echo", "foxtrot"]
        );
        t.check_invariants().unwrap();
    }

    #[test]
    fn string_key_comparisons_cost_more() {
        let mut ti: BTree<i64> = BTree::with_order(64);
        let mut ts: BTree<StrKey> = BTree::with_order(64);
        for i in 0..1000i64 {
            ti.insert(i, 0);
            ts.insert(StrKey::new(format!("customer-name-{i:08}").into_bytes()), 0);
        }
        let (_, fi) = ti.get(&500);
        let (_, fs) = ts.get(&StrKey::new(b"customer-name-00000500".to_vec()));
        assert!(fs.comparisons > fi.comparisons);
    }

    #[test]
    fn bulk_load_matches_incremental() {
        let pairs: Vec<(i64, u64)> = (0..10_000).map(|i| (i, (i * 3) as u64)).collect();
        let t = BTree::bulk_load(pairs.clone(), 64, 0.7);
        assert_eq!(t.len(), 10_000);
        t.check_invariants().unwrap();
        for (k, v) in pairs.iter().step_by(97) {
            assert_eq!(t.get(k).0, Some(*v));
        }
        // Range over a chunk matches.
        let mut seen = Vec::new();
        t.range(&100, &110, |k, _| seen.push(*k));
        assert_eq!(seen, (100..110).collect::<Vec<i64>>());
    }

    #[test]
    fn bulk_load_edge_cases() {
        let empty: BTree<i64> = BTree::bulk_load(vec![], 16, 0.7);
        assert!(empty.is_empty());
        empty.check_invariants().unwrap();

        let one = BTree::bulk_load(vec![(5i64, 50)], 16, 0.7);
        assert_eq!(one.get(&5).0, Some(50));
        one.check_invariants().unwrap();

        // Size that leaves a small tail chunk.
        let pairs: Vec<(i64, u64)> = (0..23).map(|i| (i, i as u64)).collect();
        let t = BTree::bulk_load(pairs, 4, 0.75);
        assert_eq!(t.len(), 23);
        t.check_invariants().unwrap();
    }

    #[test]
    #[should_panic(expected = "sorted unique")]
    fn bulk_load_rejects_unsorted() {
        BTree::bulk_load(vec![(2i64, 0), (1, 0)], 16, 0.7);
    }

    #[test]
    fn node_count_and_bytes_track_size() {
        let mut t = BTree::with_order(16);
        assert!(t.approx_bytes() < 64);
        for i in 0..1000i64 {
            t.insert(i, i as u64);
        }
        let n1 = t.node_count();
        let b1 = t.approx_bytes();
        assert!(n1 > 60, "n1={n1}");
        assert!(b1 > 16_000, "b1={b1}");
        for i in 0..1000i64 {
            t.remove(&i);
        }
        assert_eq!(t.node_count(), 1);
    }

    #[test]
    fn batch_get_matches_individual_gets() {
        let mut t = BTree::with_order(16);
        for i in 0..5_000i64 {
            t.insert(i * 2, i as u64);
        }
        let mut keys: Vec<i64> = (0..400).map(|i| i * 17 % 10_000).collect();
        let (results, fp) = t.batch_get(&mut keys);
        assert_eq!(results.len(), keys.len());
        for (k, v) in &results {
            assert_eq!(t.get(k).0, *v, "key {k}");
        }
        // Ordered output.
        for w in results.windows(2) {
            assert!(w[0].0 < w[1].0);
        }
        assert!(fp.nodes_visited() > 0);
    }

    #[test]
    fn batch_footprint_matches_batch_get() {
        let mut t = BTree::with_order(16);
        for i in 0..5_000i64 {
            t.insert(i * 2, i as u64);
        }
        for dup_stride in [1i64, 7, 100] {
            let mut keys: Vec<i64> = (0..400).map(|i| i * 17 % dup_stride.max(40)).collect();
            let mut keys2 = keys.clone();
            let (_, fp) = t.batch_get(&mut keys);
            let fp2 = t.batch_footprint(&mut keys2);
            assert_eq!(fp, fp2, "dup_stride={dup_stride}");
            assert_eq!(keys, keys2, "both sort the batch");
        }
        let mut empty: Vec<i64> = vec![];
        assert_eq!(t.batch_footprint(&mut empty), t.batch_get(&mut []).1);
    }

    #[test]
    fn batch_get_shares_descent_work() {
        // 400 clustered probes: the batch must visit far fewer nodes than
        // 400 independent descents (the PALM [12] amortization).
        let mut t = BTree::with_order(16);
        for i in 0..50_000i64 {
            t.insert(i, i as u64);
        }
        let mut keys: Vec<i64> = (10_000..10_400).collect();
        let (_, batch_fp) = t.batch_get(&mut keys);
        let mut single_nodes = 0;
        for k in &keys {
            single_nodes += t.get(k).1.nodes_visited();
        }
        assert!(
            batch_fp.nodes_visited() * 4 < single_nodes,
            "batch={} singles={single_nodes}",
            batch_fp.nodes_visited()
        );
    }

    #[test]
    fn batch_get_edge_cases() {
        let t: BTree<i64> = BTree::new();
        let (r, _) = t.batch_get(&mut []);
        assert!(r.is_empty());
        let (r, _) = t.batch_get(&mut [5, 5, 5]);
        assert_eq!(r, vec![(5, None)]); // deduplicated, absent
    }

    #[test]
    fn reorganize_compacts_a_fragmented_tree() {
        let mut t = BTree::with_order(16);
        for i in 0..20_000i64 {
            t.insert(i, i as u64);
        }
        // Delete 75% of keys: leaves hover near minimum occupancy.
        for i in 0..20_000i64 {
            if i % 4 != 0 {
                t.remove(&i);
            }
        }
        let frag_nodes = t.node_count();
        let frag_fill = t.avg_leaf_fill();
        let (_, fp_before) = t.get(&10_000);

        t.reorganize(0.9);
        t.check_invariants().unwrap();
        assert_eq!(t.len(), 5_000);
        assert!(
            t.avg_leaf_fill() > frag_fill + 0.2,
            "fill {frag_fill} -> {}",
            t.avg_leaf_fill()
        );
        assert!(
            t.node_count() * 3 < frag_nodes * 2,
            "nodes {frag_nodes} -> {}",
            t.node_count()
        );
        let (v, fp_after) = t.get(&10_000);
        assert_eq!(v, Some(10_000));
        assert!(fp_after.nodes_visited() <= fp_before.nodes_visited());
        // Data intact.
        let mut n = 0;
        t.scan_all(|k, v| {
            assert_eq!(*k % 4, 0);
            assert_eq!(*k as u64, v);
            n += 1;
        });
        assert_eq!(n, 5_000);
    }

    #[test]
    fn smo_counters_appear_in_footprints() {
        let mut t = BTree::with_order(4);
        let mut splits = 0;
        for i in 0..100i64 {
            let (_, fp) = t.insert(i, i as u64);
            splits += fp.splits;
        }
        assert!(splits > 10, "splits={splits}");
        let mut merges = 0;
        let mut borrows = 0;
        for i in 0..100i64 {
            let (_, fp) = t.remove(&i);
            merges += fp.merges;
            borrows += fp.borrows;
        }
        assert!(merges + borrows > 10, "merges={merges} borrows={borrows}");
    }
}
