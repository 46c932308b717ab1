//! Backward slicing + symbolic evaluation of indirect-jump targets,
//! expressed as a [`DataflowSpec`] over the generic engine.
//!
//! From the indirect jump, definitions are walked backward — first
//! within the jump's block, then across intra-procedural predecessor
//! edges — substituting each definition into the target expression.
//! Along the way, `cmp index, N` + conditional-branch facts that bound
//! the index on a path are collected via the engine's edge-kind-aware
//! [`DataflowSpec::meet_edge`] hook.
//!
//! The lattice fact is a bounded set of per-path states
//! `(Expr, Option<(Reg, u64)>, depth)`; the meet is set union, so the
//! fixpoint *is* the paper's union-over-paths ("taking the union of the
//! targets discovered along different paths, essentially ignoring
//! instructions or path conditions that fail analysis", Section 5.3). A
//! path whose expression degenerates to `Top` contributes nothing
//! instead of failing the whole analysis, and a set exceeding
//! [`MAX_PATHS`] widens to the classified forms it already proved
//! (bounded forms kept preferentially, up to the hard cap). Widening is
//! *sticky per block* — once a block widens it keeps widening — so the
//! single output-shrinking (non-monotone) step happens at most once per
//! block and the fixpoint cannot oscillate; combined with states dying
//! at [`MAX_DEPTH`] edge crossings, termination is unconditional.
//!
//! [`slice_indirect_jump_with`] builds the spec and its one
//! [`FlowGraph`] — the jump's [`backward_cone`], found by a
//! breadth-first walk with a visited set and numbered densely in address
//! order — runs it to its fixpoint, and reads the per-path facts back out
//! of the block boundaries. [`slice_cone`] is the same over a cone the
//! caller already has: the parser computes it first, to compare it with
//! the cone it last sliced.
//!
//! # Cost
//!
//! A path state crosses many more edges and blocks than there are
//! instructions to walk, so the work per state is kept off the
//! expression tree:
//!
//! * **Classified once.** A state's expression lives in a `Target`
//!   made when the expression is made, holding its dispatch form (or
//!   none), whether it died, its free registers, and whether it is
//!   already simplified. Terminal checks, fact read-out and widening
//!   read those fields; none re-simplifies or re-matches the tree.
//! * **Shared.** States hold their `Target` behind an `Arc`: crossing an
//!   edge, meeting into a set, or passing through a block that writes
//!   none of the free registers copies a pointer. Only a block that
//!   defines one of them rewrites the expression, and only a rewrite is
//!   followed by a new match. The order of a path set is still the
//!   structural order of the expressions (then bound, then depth), which
//!   fixes what widening keeps and the order facts are read out in.
//! * **Matched without allocating.** A simplified expression's sums are
//!   flat, so `classify` reads the atoms in place
//!   ([`Expr::is_simplified`], [`Expr::single_atom`]); only an
//!   expression `simplify` does not settle in one pass falls back to the
//!   flattening match.
//! * **Read lazily.** A cone block is decoded, and its written registers
//!   and guard worked out, the first time a live state needs them:
//!   paths usually resolve next to the jump, and the rest of the cone is
//!   never read.

use crate::engine::{fixpoint_outputs, DataflowSpec, Direction, ExecutorKind, FlowGraph};
use crate::expr::Expr;
use crate::view::CfgView;
use pba_cfg::EdgeKind;
use pba_concurrent::fxhash::FxHashSet;
use pba_isa::{insn::AluKind, insn::Cond, insn::ShiftKind, Insn, Op, Place, Reg, RegSet, Value};
use std::cell::{Cell, OnceCell};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Recognized jump-table dispatch forms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JumpTableForm {
    /// `target = load8(table + index*scale)` — absolute pointer table.
    Absolute {
        /// Table base address.
        table: u64,
        /// Entry stride.
        scale: u8,
        /// Index register.
        index: Reg,
    },
    /// `target = base + sext(load_w(table + index*scale))` — the
    /// PIC-style relative table GCC emits.
    Relative {
        /// Table base address.
        table: u64,
        /// Value added to each (sign-extended) entry.
        base: u64,
        /// Entry stride.
        scale: u8,
        /// Entry width in bytes.
        width: u8,
        /// Index register.
        index: Reg,
    },
}

impl JumpTableForm {
    /// The index register of the form.
    pub fn index(&self) -> Reg {
        match self {
            JumpTableForm::Absolute { index, .. } | JumpTableForm::Relative { index, .. } => *index,
        }
    }

    /// Table base address.
    pub fn table(&self) -> u64 {
        match self {
            JumpTableForm::Absolute { table, .. } | JumpTableForm::Relative { table, .. } => *table,
        }
    }

    /// Entry stride in bytes.
    pub fn stride(&self) -> u8 {
        match self {
            JumpTableForm::Absolute { scale, .. } | JumpTableForm::Relative { scale, .. } => *scale,
        }
    }
}

/// What one backward path learned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathFact {
    /// The recognized table form, if the expression matched one.
    pub form: Option<JumpTableForm>,
    /// Exclusive upper bound on the index register (entry count), if a
    /// guarding comparison was found on this path.
    pub bound: Option<u64>,
}

/// Apply the reverse transfer of one instruction to the wanted
/// expression, which mentions a register `i` writes (the caller checks:
/// an instruction that writes none of the expression's free registers
/// leaves it as it is). Returns the updated expression.
fn rewrite(i: &Insn, wanted: Expr) -> Expr {
    match i.op {
        Op::Mov { dst: Place::Reg(r), src, width, sign_extend } => {
            let v = match src {
                Value::Reg(s) => Expr::Reg(s),
                Value::Imm(imm) => Expr::Const(imm as u64),
                Value::Mem(m, w) => Expr::Load {
                    width: w,
                    sext: sign_extend && width == 4,
                    addr: Box::new(Expr::of_mem(&m)),
                },
            };
            wanted.subst(r, &v)
        }
        Op::Lea { dst, mem } => wanted.subst(dst, &Expr::of_mem(&mem)),
        Op::Alu { kind, dst: Place::Reg(r), src, .. } => {
            let old = Expr::Reg(r);
            let v = match (kind, &src) {
                (AluKind::Xor, Value::Reg(s)) if *s == r => Expr::Const(0),
                (AluKind::Add, _) => {
                    Expr::Add(Box::new(old), Box::new(Expr::of_value(&src, 8, false)))
                }
                (AluKind::Sub, Value::Imm(n)) => {
                    Expr::Add(Box::new(old), Box::new(Expr::Const((-n) as u64)))
                }
                // inc/dec are add/sub 1 as far as the value goes (their
                // difference — not writing CF — matters to the guard
                // analysis, not to the symbolic walk).
                (AluKind::Inc, _) => Expr::Add(Box::new(old), Box::new(Expr::Const(1))),
                (AluKind::Dec, _) => Expr::Add(Box::new(old), Box::new(Expr::Const(u64::MAX))),
                // Masking (`and idx, N-1`) only narrows the index range;
                // treating it as identity over-approximates the target
                // set, which union-over-paths tolerates and finalization
                // clamps (the paper's Section 5.3/5.4 pipeline).
                (AluKind::And, Value::Imm(n)) if *n >= 0 => old,
                _ => Expr::Top,
            };
            wanted.subst(r, &v)
        }
        Op::Shift { kind: ShiftKind::Shl, dst: Place::Reg(r), amount: Value::Imm(k), .. }
            if (0..16).contains(&k) =>
        {
            wanted.subst(r, &Expr::Mul(Box::new(Expr::Reg(r)), 1u64 << k))
        }
        _ => {
            // Any other write to a tracked register loses it.
            let mut w = wanted;
            for r in i.regs_written().iter() {
                if r.is_gpr() {
                    w = w.subst(r, &Expr::Top);
                }
            }
            w
        }
    }
}

/// The guard a block's terminator applies: `cmp r, n` (with `n >= 0`)
/// followed by a conditional branch on the flags that compare set.
///
/// The `cmp` need not be adjacent to the `jcc`: the scan walks back
/// over any instruction that does not write a flag the condition reads
/// ([`Insn::flags_written`] vs [`Cond::flags_read`]) — so a `mov`, a
/// `lea`, or an `inc`/`dec` (no CF write) between a `cmp` and the
/// CF-consuming `jb`/`jae` keeps the bound, while anything genuinely
/// redefining a consumed flag (including unmodeled instructions, which
/// conservatively write all flags) stops the scan.
#[derive(Debug, Clone, Copy)]
struct Guard {
    cond: Cond,
    reg: Reg,
    n: u64,
}

impl Guard {
    /// The guard ending `insns`, if its terminator is a conditional
    /// branch on a register-immediate compare. Found once per block.
    fn of_block(insns: &[Insn]) -> Option<Guard> {
        let term = insns.last()?;
        let Op::Jcc { cond, .. } = term.op else { return None };
        // Find the instruction that last defined the flags the branch
        // consumes; it must be the guarding compare.
        let consumed = cond.flags_read();
        let cmp = insns.iter().rev().skip(1).find(|i| i.flags_written().intersects(consumed))?;
        let Op::Cmp { a: Value::Reg(reg), b: Value::Imm(n), .. } = cmp.op else { return None };
        (n >= 0).then_some(Guard { cond, reg, n: n as u64 })
    }

    /// The exclusive bound this guard puts on a path that leaves its block
    /// over an edge of `edge_kind` toward the jump, if it compares one of
    /// the `tracked` registers.
    fn bound(&self, edge_kind: EdgeKind, tracked: RegSet) -> Option<(Reg, u64)> {
        if !tracked.contains(self.reg) {
            return None;
        }
        let n = self.n;
        // Which side of the branch leads to the jump table?
        let via_taken = edge_kind == EdgeKind::CondTaken;
        let bound = match (self.cond, via_taken) {
            // cmp r, N ; ja default  → table side is fall-through: r <= N.
            (Cond::A, false) => Some(n + 1),
            // cmp r, N ; jae default → fall-through: r < N.
            (Cond::Ae, false) => Some(n),
            // cmp r, N ; jbe table   → taken side: r <= N.
            (Cond::Be, true) => Some(n + 1),
            // cmp r, N ; jb table    → taken side: r < N.
            (Cond::B, true) => Some(n),
            _ => None,
        }?;
        Some((self.reg, bound))
    }
}

/// Try to match an expression against the known dispatch forms. The
/// forms are read off the expression's simplified shape: when the
/// expression (or, failing that, its simplification) is already in
/// simplified form, its sums are flat and the match reads their atoms
/// in place, allocating nothing.
fn classify(e: &Expr) -> Option<JumpTableForm> {
    if e.is_simplified() {
        return classify_simplified(e);
    }
    let e = e.simplify();
    if e.is_simplified() {
        classify_simplified(&e)
    } else {
        classify_sum(&e)
    }
}

/// `table + index*scale` with a single index register and a scale of
/// at most 8, as `(table, index, scale)`: the table address of both
/// forms. `addr` must be simplified.
fn table_addr(addr: &Expr) -> Option<(u64, Reg, u8)> {
    let (index, table) = addr.single_atom()?;
    match index {
        Expr::Reg(r) => Some((table, *r, 1)),
        Expr::Mul(inner, k) if *k <= 8 => match **inner {
            Expr::Reg(r) => Some((table, r, *k as u8)),
            _ => None,
        },
        _ => None,
    }
}

/// [`classify`] of an expression [`Expr::is_simplified`] holds for.
fn classify_simplified(e: &Expr) -> Option<JumpTableForm> {
    // Absolute: load8(table + idx*scale).
    if let Expr::Load { width: 8, addr, .. } = e {
        let (table, index, scale) = table_addr(addr)?;
        return Some(JumpTableForm::Absolute { table, scale, index });
    }
    // Relative: base + sext(load4(table + idx*scale)).
    match e.single_atom()? {
        (Expr::Load { width: 4, addr, .. }, base) => {
            let (table, index, scale) = table_addr(addr)?;
            Some(JumpTableForm::Relative { table, base, scale, width: 4, index })
        }
        _ => None,
    }
}

/// [`classify`] of a simplified expression that simplifying again would
/// still change (a product by 1 of a sum leaves a nested sum behind):
/// its sums are flattened, and their atoms simplified, as they are read.
fn classify_sum(e: &Expr) -> Option<JumpTableForm> {
    fn match_table_addr(addr: &Expr) -> Option<(u64, Reg, u8)> {
        let (atoms, konst) = addr.as_sum();
        let mut index: Option<(Reg, u8)> = None;
        for a in atoms {
            match a {
                Expr::Reg(r) if index.is_none() => index = Some((r, 1)),
                Expr::Mul(inner, k) => match (*inner, index) {
                    (Expr::Reg(r), None) if k <= 8 => index = Some((r, k as u8)),
                    _ => return None,
                },
                _ => return None,
            }
        }
        let (r, s) = index?;
        Some((konst, r, s))
    }

    if let Expr::Load { width: 8, addr, .. } = e {
        let (table, index, scale) = match_table_addr(addr)?;
        return Some(JumpTableForm::Absolute { table, scale, index });
    }
    let (atoms, base) = e.as_sum();
    if atoms.len() == 1 {
        if let Expr::Load { width: 4, addr, .. } = &atoms[0] {
            let (table, index, scale) = match_table_addr(addr)?;
            return Some(JumpTableForm::Relative { table, base, scale, width: 4, index });
        }
    }
    None
}

/// Maximum blocks walked backward on one path (edge crossings).
pub const MAX_DEPTH: usize = 8;
/// Maximum path states held per block fact before widening.
pub const MAX_PATHS: usize = 64;

/// A symbolic jump-target expression together with everything the slice
/// asks of it — its dispatch form, whether it died, its free registers,
/// whether it is already simplified — computed once, when the expression
/// is made. Path states share it behind an `Arc`: crossing an edge,
/// meeting into a set, or passing through a block that defines none of
/// its registers copies a pointer, not the tree, and re-classifies
/// nothing.
#[derive(Debug)]
struct Target {
    /// The (simplified) expression.
    expr: Expr,
    /// `classify(expr)`: `None` for an unresolved or dead expression.
    form: Option<JumpTableForm>,
    /// The expression holds `Top`: the path died.
    dead: bool,
    /// Its free registers — the only ones a definition can rewrite.
    regs: RegSet,
    /// `simplify` returns it unchanged.
    simplified: bool,
}

impl Target {
    fn new(expr: Expr) -> Arc<Target> {
        let dead = expr.has_top();
        // A form is never found under a `Top`, so a dead expression
        // needs no match.
        let form = if dead { None } else { classify(&expr) };
        let (regs, simplified) = (expr.free_regs(), expr.is_simplified());
        Arc::new(Target { expr, form, dead, regs, simplified })
    }
}

/// One backward path's state at a block boundary: the symbolic target
/// expression as seen from here, the guard bound captured closest to the
/// jump (if any), and how many edges the path has crossed.
///
/// Ordered by expression (structurally), then bound, then depth: the
/// order the path sets iterate in, which fixes both which states
/// widening keeps and the order the facts are read out in.
#[derive(Debug, Clone)]
struct PathState {
    /// Symbolic jump-target expression at this boundary.
    target: Arc<Target>,
    /// First `(index reg, exclusive bound)` guard met on the path.
    bound: Option<(Reg, u64)>,
    /// Edge crossings from the jump block (caps at [`MAX_DEPTH`]).
    depth: usize,
}

impl Ord for PathState {
    fn cmp(&self, other: &PathState) -> std::cmp::Ordering {
        let expr = if Arc::ptr_eq(&self.target, &other.target) {
            std::cmp::Ordering::Equal
        } else {
            self.target.expr.cmp(&other.target.expr)
        };
        expr.then(self.bound.cmp(&other.bound)).then(self.depth.cmp(&other.depth))
    }
}

impl PartialOrd for PathState {
    fn partial_cmp(&self, other: &PathState) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for PathState {
    fn eq(&self, other: &PathState) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for PathState {}

impl PathState {
    /// The per-path result this state contributes to the union. A dead
    /// path contributes nothing (union semantics).
    fn fact(&self) -> PathFact {
        match self.target.form {
            Some(f) => PathFact {
                form: Some(f),
                bound: self.bound.and_then(|(r, b)| (f.index() == r).then_some(b)),
            },
            None => PathFact { form: None, bound: None },
        }
    }

    /// Terminal states stop crossing edges: the path died (`Top`),
    /// resolved completely (form + matching bound), or hit the depth cap.
    fn is_terminal(&self) -> bool {
        self.depth >= MAX_DEPTH
            || self.target.dead
            || self.target.form.is_some_and(|f| self.bound.is_some_and(|(r, _)| f.index() == r))
    }
}

/// The [`SliceSpec`] lattice fact: a bounded set of path states, ordered
/// for deterministic iteration. Union is the meet; exceeding
/// [`MAX_PATHS`] widens the set to the bare classified forms it already
/// contains.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
struct PathSet {
    /// The per-path states.
    states: BTreeSet<PathState>,
}

impl PathSet {
    /// The widening operator. Keeps only states whose expression already
    /// classifies as a dispatch form — frozen at [`MAX_DEPTH`] so they
    /// stop propagating — and collapses everything else into a single
    /// `top` marker. Still-ambiguous paths are given up on, the same
    /// trade the old DFS made with its global path cap; classified
    /// states survive up to the hard [`MAX_PATHS`] cap, those carrying
    /// a guard bound kept preferentially (a bounded form is what makes
    /// the eventual table scan exact, so it is the last thing to drop).
    ///
    /// Note this is *unconditional*: whether to widen is decided per
    /// block by [`SliceSpec::transfer`], stickily — see there for why.
    fn widen(&mut self, top: &Arc<Target>) {
        let classified = self
            .states
            .iter()
            .filter(|s| s.target.form.is_some())
            .map(|s| PathState { target: Arc::clone(&s.target), bound: s.bound, depth: MAX_DEPTH });
        let (bounded, bare): (Vec<PathState>, Vec<PathState>) =
            classified.partition(|s| s.bound.is_some());
        let kept: BTreeSet<PathState> = bounded.into_iter().chain(bare).take(MAX_PATHS).collect();
        self.states = kept;
        self.states.insert(PathState { target: Arc::clone(top), bound: None, depth: MAX_DEPTH });
    }
}

/// Walk `expr` backward through `insns` (last first), stopping as soon
/// as it classifies: substituting past the resolution point would let
/// unrelated (or, in over-approximated split blocks, garbage)
/// definitions clobber an already-complete dispatch pattern. `resolved`
/// and `regs` are `classify(&expr).is_some()` and `expr.free_regs()`:
/// an instruction that writes none of `regs` leaves the expression as
/// it is, so only a rewrite is followed by a new match.
fn walk_back<'i>(
    insns: impl Iterator<Item = &'i Insn>,
    mut expr: Expr,
    mut resolved: bool,
    mut regs: RegSet,
) -> Expr {
    for i in insns {
        if resolved {
            break;
        }
        if i.regs_written().intersect(regs).is_empty() {
            continue;
        }
        expr = rewrite(i, expr);
        resolved = classify(&expr).is_some();
        regs = expr.free_regs();
    }
    expr.simplify()
}

/// The blocks within [`MAX_DEPTH`] predecessor edges of `jump_block` in
/// `view` — the only blocks a slice path state can reach — in ascending
/// address order, `jump_block` included. `pred_edges` names member
/// blocks only, so every block found is one of the view's.
pub fn backward_cone(view: &dyn CfgView, jump_block: u64) -> Vec<u64> {
    let mut cone = vec![jump_block];
    let mut seen: FxHashSet<u64> = FxHashSet::default();
    seen.insert(jump_block);
    let mut level = 0..1;
    for _ in 0..MAX_DEPTH {
        for i in level.clone() {
            for &(p, _) in view.pred_edges(cone[i]) {
                if seen.insert(p) {
                    cone.push(p);
                }
            }
        }
        if level.end == cone.len() {
            break;
        }
        level = level.end..cone.len();
    }
    cone.sort_unstable();
    cone
}

/// What the slice reads of one block of the cone.
struct ConeBlock<'a> {
    /// The block's instructions, borrowed from the view's decode-once
    /// slices; nothing is copied or re-decoded.
    insns: &'a [Insn],
    /// Registers the block writes: a state whose target mentions none
    /// of them crosses the block unchanged.
    written: RegSet,
    /// The guard ending the block.
    guard: Option<Guard>,
}

/// Backward jump-table slicing as a [`DataflowSpec`].
///
/// * **Fact**: [`PathSet`] — bounded set of `(target, bound, depth)`
///   path states at each block boundary (entry side, since the problem
///   is backward).
/// * **Meet**: set union.
/// * **Transfer**: walk every state's expression backward through the
///   block's instructions, then enforce [`MAX_PATHS`] by sticky
///   widening; the jump block additionally injects the seed state (the
///   target expression walked back from the terminator).
/// * **Edge meet**: crossing the CFG edge `p → b` backward drops
///   terminal states, bumps `depth`, and attaches the guard bound of
///   `p`'s `cmp`+`jcc` terminator for the edge kind actually taken —
///   the part a direction-only engine cannot express, hence
///   [`DataflowSpec::meet_edge`].
struct SliceSpec<'a> {
    jump_block: u64,
    seed: PathSet,
    /// The jump's backward cone (see [`backward_cone`]), in ascending
    /// address order: the one graph the spec runs on.
    graph: FlowGraph,
    /// The view the cone is part of.
    view: &'a dyn CfgView,
    /// What the slice reads of each cone block, by dense id, looked up
    /// the first time a live path state needs it: a cone block no state
    /// reaches (most of a cone, once the paths resolve near the jump) is
    /// never even decoded.
    cone_blocks: Vec<OnceCell<ConeBlock<'a>>>,
    /// The marker widening leaves behind.
    top: Arc<Target>,
    /// Blocks whose transfer has widened, by dense id, stickily: once a
    /// block widens it keeps widening. Widening shrinks a fact
    /// (non-monotone), so without stickiness a cyclic CFG straddling
    /// [`MAX_PATHS`] could oscillate between widened and unwidened
    /// fixpoint candidates and the worklist would never drain. Sticky
    /// widening means each block takes the one non-monotone step at most
    /// once; between and after those finitely many events the system is
    /// monotone, so the fixpoint iteration terminates.
    widened: Vec<Cell<bool>>,
}

impl<'a> SliceSpec<'a> {
    /// Build the spec for the indirect jump terminating `jump_block`,
    /// over `cone` (its [`backward_cone`] in `view`). Returns `None` when
    /// the block's terminator is not an indirect jump.
    fn build(view: &'a dyn CfgView, jump_block: u64, cone: &[u64]) -> Option<SliceSpec<'a>> {
        let jinsns = view.insns(jump_block);
        let term = jinsns.last()?;
        let Op::JmpInd { src } = term.op else { return None };

        // The seed: the jump block walked backward, excluding the
        // terminator itself.
        let wanted = Expr::of_value(&src, 8, false);
        let (resolved, regs) = (classify(&wanted).is_some(), wanted.free_regs());
        let start = walk_back(jinsns.iter().rev().skip(1), wanted, resolved, regs);
        let mut seed = PathSet::default();
        seed.states.insert(PathState { target: Target::new(start), bound: None, depth: 0 });

        let edges =
            cone.iter().flat_map(|&b| view.succ_edges(b).iter().map(move |&(d, k)| (b, d, k)));
        let graph = FlowGraph::from_parts(cone, view.entry(), edges);
        let cone_blocks = cone.iter().map(|_| OnceCell::new()).collect();
        let widened = cone.iter().map(|_| Cell::new(false)).collect();
        let top = Target::new(Expr::Top);
        Some(SliceSpec { jump_block, seed, graph, view, cone_blocks, top, widened })
    }

    /// Cone block `i`, read on first use.
    fn cone_block(&self, i: usize) -> &ConeBlock<'a> {
        self.cone_blocks[i].get_or_init(|| {
            let insns = self.view.insns(self.graph.blocks[i]);
            let written = insns.iter().fold(RegSet::EMPTY, |w, i| w.union(i.regs_written()));
            ConeBlock { insns, written, guard: Guard::of_block(insns) }
        })
    }

    /// `target` walked backward through cone block `i`.
    fn walk(&self, i: usize, target: &Arc<Target>) -> Arc<Target> {
        if target.form.is_some() || self.cone_block(i).written.intersect(target.regs).is_empty() {
            // Nothing in the block rewrites it (or it already resolved):
            // the walk would only simplify it.
            return if target.simplified {
                Arc::clone(target)
            } else {
                Target::new(target.expr.simplify())
            };
        }
        let insns = self.cone_block(i).insns.iter().rev();
        Target::new(walk_back(insns, target.expr.clone(), false, target.regs))
    }
}

impl DataflowSpec for SliceSpec<'_> {
    type Fact = PathSet;

    fn direction(&self) -> Direction {
        Direction::Backward
    }

    fn bottom(&self, _block: u64) -> PathSet {
        PathSet::default()
    }

    fn boundary(&self, _block: u64) -> PathSet {
        // Nothing enters at exit blocks; the only source of states is
        // the jump block's transfer injecting the seed.
        PathSet::default()
    }

    fn meet(&self, into: &mut PathSet, incoming: &PathSet) {
        // Plain union: the MAX_PATHS bound is enforced (stickily, per
        // block) by `transfer`, which knows which block it is at.
        into.states.extend(incoming.states.iter().cloned());
    }

    fn transfer(&self, block: u64, input: &PathSet) -> PathSet {
        let i = self.graph.id(block).expect("cone block");
        let mut out = PathSet::default();
        for s in &input.states {
            let target = self.walk(i, &s.target);
            out.states.insert(PathState { target, bound: s.bound, depth: s.depth });
        }
        // Sticky widening (see `widened`): a block that once exceeded
        // MAX_PATHS keeps widening even if its input later shrinks, so
        // the one output-shrinking step happens at most once per block
        // and the fixpoint cannot oscillate.
        if self.widened[i].get() || out.states.len() > MAX_PATHS {
            self.widened[i].set(true);
            out.widen(&self.top);
        }
        if block == self.jump_block {
            // The seed joins after widening: the jump block's own state
            // is the anchor of the whole analysis and must survive even
            // when a cycle floods the block past the cap.
            out.states.extend(self.seed.states.iter().cloned());
        }
        out
    }

    fn meet_edge(&self, into: &mut PathSet, src: u64, _dst: u64, kind: EdgeKind, fact: &PathSet) {
        let mut live = fact.states.iter().filter(|s| !s.is_terminal()).peekable();
        if live.peek().is_none() {
            return;
        }
        let guard = self.cone_block(self.graph.id(src).expect("cone block")).guard;
        for s in live {
            // The bound closest to the jump wins; tracked registers are
            // those of the expression *before* it is walked through the
            // guard block (the guard compares the value the dispatch
            // consumes).
            let bound = s.bound.or_else(|| guard.and_then(|g| g.bound(kind, s.target.regs)));
            into.states.insert(PathState {
                target: Arc::clone(&s.target),
                bound,
                depth: s.depth + 1,
            });
        }
    }
}

/// Everything one engine-backed slicing run produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SliceOutcome {
    /// Per-path facts, unioned over every block boundary (terminated
    /// paths rest where they terminated), in ascending block order.
    pub facts: Vec<PathFact>,
    /// Whether any block's path set hit [`MAX_PATHS`] and widened.
    pub widened: bool,
}

/// Run the engine-backed slice for the indirect jump terminating
/// `jump_block`. Returns `None` if the terminator is not an indirect
/// jump. `_exec` is ignored (see [`ExecutorKind`]). Below [`MAX_PATHS`]
/// the spec is monotone, so its fixpoint is unique. Widening is the
/// caveat: whether a block ever sees an input big enough to trip its
/// sticky bit depends on which *intermediate* predecessor outputs the
/// worklist order produces. The order is deterministic (RPO priority),
/// so the outcome is too; `tests/slice_golden.rs` pins it on the
/// generated corpora and on a fan-out that widens.
pub fn slice_indirect_jump_with(
    view: &dyn CfgView,
    jump_block: u64,
    _exec: ExecutorKind,
) -> Option<SliceOutcome> {
    slice_cone(view, jump_block, &backward_cone(view, jump_block))
}

/// [`slice_indirect_jump_with`] over a cone the caller already computed
/// with [`backward_cone`] on the same view — what the parser does, since
/// it compares the cone against the one it last sliced before deciding
/// to slice at all.
pub fn slice_cone(view: &dyn CfgView, jump_block: u64, cone: &[u64]) -> Option<SliceOutcome> {
    let spec = SliceSpec::build(view, jump_block, cone)?;
    let output = fixpoint_outputs(&spec, &spec.graph);
    let facts = output.iter().flat_map(|o| o.states.iter().map(PathState::fact)).collect();
    let widened = spec.widened.iter().any(Cell::get);
    Some(SliceOutcome { facts, widened })
}

/// Every `(function entry, jump block)` pair of a finalized CFG whose
/// block terminator is an indirect branch — the work list a
/// whole-binary slicing sweep fans out over (shared by the benchmark
/// suite and the corpus slice tests). Sorted for determinism.
pub fn collect_indirect_jumps(cfg: &pba_cfg::Cfg) -> Vec<(u64, u64)> {
    let mut jumps = Vec::new();
    for f in cfg.functions.values() {
        for &b in &f.blocks {
            let Some(blk) = cfg.blocks.get(&b) else { continue };
            let is_ind =
                cfg.code.insns(blk.start, blk.end).last().is_some_and(|i| {
                    matches!(i.control_flow(), pba_isa::ControlFlow::IndirectBranch)
                });
            if is_ind {
                jumps.push((f.entry, b));
            }
        }
    }
    jumps.sort_unstable();
    jumps
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::VecView;
    use pba_isa::x86::{decode_one, encode};
    use pba_isa::MemRef;

    /// The per-path facts of the indirect jump terminating `jump_block`.
    fn facts_of(view: &dyn CfgView, jump_block: u64) -> Vec<PathFact> {
        slice_indirect_jump_with(view, jump_block, ExecutorKind::Serial)
            .expect("indirect jump")
            .facts
    }

    fn decode_seq(bytes: &[u8], base: u64) -> Vec<Insn> {
        let mut out = vec![];
        let mut at = 0usize;
        while at < bytes.len() {
            let i = decode_one(&bytes[at..], base + at as u64).unwrap();
            at += i.len as usize;
            out.push(i);
        }
        out
    }

    /// cmp rdi, 4 ; ja default | table block: jmp [0x601000 + rdi*8]
    fn absolute_table_view() -> VecView {
        let mut guard = vec![];
        encode::cmp_ri(&mut guard, Reg::RDI, 4);
        let j = encode::jcc_rel32(&mut guard, Cond::A);
        encode::patch_rel32(&mut guard, j, 0x200);
        let guard_insns = decode_seq(&guard, 0x1000);
        let guard_end = 0x1000 + guard.len() as u64;

        let mut disp = vec![];
        encode::jmp_ind_mem(&mut disp, &MemRef::base_index(None, Reg::RDI, 8, 0x601000));
        let disp_insns = decode_seq(&disp, 0x2000);
        let disp_end = 0x2000 + disp.len() as u64;

        VecView::new(
            0x1000,
            vec![(0x1000, guard_end, guard_insns), (0x2000, disp_end, disp_insns)],
            vec![(0x1000, 0x2000, EdgeKind::CondNotTaken), (0x1000, 0x3000, EdgeKind::CondTaken)],
        )
    }

    #[test]
    fn absolute_pattern_with_bound() {
        let view = absolute_table_view();
        let facts = facts_of(&view, 0x2000);
        let hit = facts
            .iter()
            .filter(|f| f.form.is_some())
            .max_by_key(|f| f.bound.is_some())
            .expect("one path must classify");
        assert_eq!(
            hit.form,
            Some(JumpTableForm::Absolute { table: 0x601000, scale: 8, index: Reg::RDI })
        );
        assert_eq!(hit.bound, Some(5), "cmp rdi,4 ; ja → indices 0..=4");
    }

    #[test]
    fn relative_pic_pattern() {
        // guard:  cmp rsi, 7 ; ja default
        // disp:   lea rcx, [rip+T] ; movsxd rax, dword [rcx + rsi*4] ;
        //         add rax, rcx ; jmp rax
        let mut guard = vec![];
        encode::cmp_ri(&mut guard, Reg::RSI, 7);
        let j = encode::jcc_rel32(&mut guard, Cond::A);
        encode::patch_rel32(&mut guard, j, 0x300);
        let guard_insns = decode_seq(&guard, 0x1000);
        let guard_end = 0x1000 + guard.len() as u64;

        let mut disp = vec![];
        let lea_site = encode::lea_rip(&mut disp, Reg::RCX);
        encode::movsxd(&mut disp, Reg::RAX, &MemRef::base_index(Some(Reg::RCX), Reg::RSI, 4, 0));
        encode::alu_rr(&mut disp, AluKind::Add, Reg::RAX, Reg::RCX);
        encode::jmp_ind_reg(&mut disp, Reg::RAX);
        // Table at buffer offset 0x100 → vaddr 0x2100.
        encode::patch_rel32(&mut disp, lea_site, 0x100);
        let disp_insns = decode_seq(&disp, 0x2000);
        let disp_end = 0x2000 + disp.len() as u64;

        let view = VecView::new(
            0x1000,
            vec![(0x1000, guard_end, guard_insns), (0x2000, disp_end, disp_insns)],
            vec![(0x1000, 0x2000, EdgeKind::CondNotTaken), (0x1000, 0x4000, EdgeKind::CondTaken)],
        );
        let facts = facts_of(&view, 0x2000);
        let hit = facts
            .iter()
            .filter(|f| f.form.is_some())
            .max_by_key(|f| f.bound.is_some())
            .expect("classified");
        assert_eq!(
            hit.form,
            Some(JumpTableForm::Relative {
                table: 0x2100,
                base: 0x2100,
                scale: 4,
                width: 4,
                index: Reg::RSI
            })
        );
        assert_eq!(hit.bound, Some(8));
    }

    #[test]
    fn unresolvable_jump_register_yields_no_form() {
        // jmp rax with rax loaded via an unmodeled op (pop).
        let mut code = vec![];
        encode::pop_r(&mut code, Reg::RAX);
        encode::jmp_ind_reg(&mut code, Reg::RAX);
        let insns = decode_seq(&code, 0x1000);
        let end = 0x1000 + code.len() as u64;
        let view = VecView::new(0x1000, vec![(0x1000, end, insns)], vec![]);
        let facts = facts_of(&view, 0x1000);
        assert!(facts.iter().all(|f| f.form.is_none()));
    }

    #[test]
    fn non_indirect_terminator_returns_empty() {
        let mut code = vec![];
        encode::ret(&mut code);
        let insns = decode_seq(&code, 0x1000);
        let view = VecView::new(0x1000, vec![(0x1000, 0x1001, insns)], vec![]);
        assert!(slice_indirect_jump_with(&view, 0x1000, ExecutorKind::Serial).is_none());
    }

    /// A jump block whose predecessor subgraph is detached from the
    /// function entry (the parser's `ensure_block` snapshots produce
    /// exactly this shape mid-parse): the slice must still classify the
    /// dispatch and recover the guard bound from the unreachable pred.
    #[test]
    fn unreachable_pred_jump_block_still_classifies() {
        let mut entry = vec![];
        encode::ret(&mut entry);
        let entry_insns = decode_seq(&entry, 0x1000);

        let mut guard = vec![];
        encode::cmp_ri(&mut guard, Reg::RDI, 4);
        let j = encode::jcc_rel32(&mut guard, Cond::A);
        encode::patch_rel32(&mut guard, j, 0x200);
        let guard_insns = decode_seq(&guard, 0x4000);
        let guard_end = 0x4000 + guard.len() as u64;

        let mut disp = vec![];
        encode::jmp_ind_mem(&mut disp, &MemRef::base_index(None, Reg::RDI, 8, 0x601000));
        let disp_insns = decode_seq(&disp, 0x2000);
        let disp_end = 0x2000 + disp.len() as u64;

        let view = VecView::new(
            0x1000,
            vec![
                (0x1000, 0x1001, entry_insns),
                (0x4000, guard_end, guard_insns),
                (0x2000, disp_end, disp_insns),
            ],
            // No path from the entry to the guard or the jump block.
            vec![(0x4000, 0x2000, EdgeKind::CondNotTaken), (0x4000, 0x5000, EdgeKind::CondTaken)],
        );
        let facts = facts_of(&view, 0x2000);
        let hit = facts
            .iter()
            .filter(|f| f.form.is_some())
            .max_by_key(|f| f.bound.is_some())
            .expect("detached subgraph must still classify");
        assert_eq!(
            hit.form,
            Some(JumpTableForm::Absolute { table: 0x601000, scale: 8, index: Reg::RDI })
        );
        assert_eq!(hit.bound, Some(5));
    }

    /// An `Alu` that does not write the flags the branch consumes must
    /// NOT drop the guard bound: `inc` leaves CF untouched, and `jae`
    /// reads only CF, so the branch still tests the `cmp`.
    ///
    /// This deliberately flips the old pinned expectation
    /// (`flags_clobber_between_cmp_and_jcc_drops_bound`), which treated
    /// *every* `Alu` between the `cmp` and the `jcc` as a clobber; the
    /// per-kind flag tracking (`Insn::flags_written`) recovers these
    /// bounds. The genuine-clobber case is pinned separately below.
    #[test]
    fn non_flag_writing_alu_between_cmp_and_jcc_keeps_bound() {
        let mut guard = vec![];
        encode::cmp_ri(&mut guard, Reg::RDI, 4);
        // `inc rsi` writes ZF/SF/OF/PF/AF but spares CF — the only flag
        // the `jae` consumes.
        encode::inc_r(&mut guard, Reg::RSI);
        let j = encode::jcc_rel32(&mut guard, Cond::Ae);
        encode::patch_rel32(&mut guard, j, 0x200);
        let guard_insns = decode_seq(&guard, 0x1000);
        let guard_end = 0x1000 + guard.len() as u64;

        let mut disp = vec![];
        encode::jmp_ind_mem(&mut disp, &MemRef::base_index(None, Reg::RDI, 8, 0x601000));
        let disp_insns = decode_seq(&disp, 0x2000);
        let disp_end = 0x2000 + disp.len() as u64;

        let view = VecView::new(
            0x1000,
            vec![(0x1000, guard_end, guard_insns), (0x2000, disp_end, disp_insns)],
            vec![(0x1000, 0x2000, EdgeKind::CondNotTaken), (0x1000, 0x3000, EdgeKind::CondTaken)],
        );
        let facts = facts_of(&view, 0x2000);
        let hit = facts
            .iter()
            .filter(|f| f.form.is_some())
            .max_by_key(|f| f.bound.is_some())
            .expect("form classifies");
        assert_eq!(
            hit.bound,
            Some(4),
            "cmp rdi,4 ; inc rsi ; jae default → r < 4 survives: {facts:?}"
        );
    }

    /// A genuine flags clobber between the `cmp` and the `jcc` — an
    /// `add` rewriting CF, which the `ja` consumes — means the branch
    /// no longer tests the compare: `bound_from_pred` (correctly, if
    /// silently) refuses the bound, and the table is analyzed as
    /// unbounded. Pins the behavior the parser's unbounded scan path
    /// depends on.
    #[test]
    fn genuine_flags_clobber_between_cmp_and_jcc_drops_bound() {
        let mut guard = vec![];
        encode::cmp_ri(&mut guard, Reg::RDI, 4);
        // `add rsi, 1` rewrites the flags the `ja` consumes.
        encode::alu_ri(&mut guard, AluKind::Add, Reg::RSI, 1);
        let j = encode::jcc_rel32(&mut guard, Cond::A);
        encode::patch_rel32(&mut guard, j, 0x200);
        let guard_insns = decode_seq(&guard, 0x1000);
        let guard_end = 0x1000 + guard.len() as u64;

        let mut disp = vec![];
        encode::jmp_ind_mem(&mut disp, &MemRef::base_index(None, Reg::RDI, 8, 0x601000));
        let disp_insns = decode_seq(&disp, 0x2000);
        let disp_end = 0x2000 + disp.len() as u64;

        let view = VecView::new(
            0x1000,
            vec![(0x1000, guard_end, guard_insns), (0x2000, disp_end, disp_insns)],
            vec![(0x1000, 0x2000, EdgeKind::CondNotTaken), (0x1000, 0x3000, EdgeKind::CondTaken)],
        );
        let facts = facts_of(&view, 0x2000);
        assert!(facts.iter().any(|f| f.form.is_some()), "form still classifies");
        assert!(
            facts.iter().all(|f| f.bound.is_none()),
            "clobbered guard must not contribute a bound: {facts:?}"
        );
    }

    /// A chain of 8 diamonds whose arms perturb the jump register fans
    /// out into 2^7 = 128 distinct path states mid-chain — past
    /// `MAX_PATHS` — so the fact sets widen. The widened (ambiguous)
    /// paths are given up on, but the direct bypass path that resolves
    /// the PIC-style dispatch survives, bound included, and every
    /// per-block fact stays bounded.
    #[test]
    fn widened_diamond_cfg_keeps_resolved_path() {
        // guard: cmp rsi, 7 ; ja default
        let mut guard = vec![];
        encode::cmp_ri(&mut guard, Reg::RSI, 7);
        let j = encode::jcc_rel32(&mut guard, Cond::A);
        encode::patch_rel32(&mut guard, j, 0x300);
        let guard_insns = decode_seq(&guard, 0x1000);
        let guard_end = 0x1000 + guard.len() as u64;

        // t: lea rcx, [rip+T] ; movsxd rax, [rcx + rsi*4] ; add rax, rcx
        let mut t = vec![];
        let lea_site = encode::lea_rip(&mut t, Reg::RCX);
        encode::movsxd(&mut t, Reg::RAX, &MemRef::base_index(Some(Reg::RCX), Reg::RSI, 4, 0));
        encode::alu_rr(&mut t, AluKind::Add, Reg::RAX, Reg::RCX);
        encode::patch_rel32(&mut t, lea_site, 0x100); // table at 0x2100
        let t_insns = decode_seq(&t, 0x2000);
        let t_end = 0x2000 + t.len() as u64;

        // jump block: jmp rax
        let mut jb = vec![];
        encode::jmp_ind_reg(&mut jb, Reg::RAX);
        let jb_insns = decode_seq(&jb, 0x9000);
        let jb_end = 0x9000 + jb.len() as u64;

        let arm_a = |i: u64| 0x3000 + i * 0x100;
        let arm_b = |i: u64| 0x3000 + i * 0x100 + 0x80;

        let mut block_data = vec![
            (0x1000, guard_end, guard_insns),
            (0x2000, t_end, t_insns),
            (0x9000, jb_end, jb_insns),
        ];
        let mut edges = vec![
            (0x1000, 0x2000, EdgeKind::CondNotTaken),
            (0x1000, 0x7000, EdgeKind::CondTaken),
            // The bypass: dispatch straight after t resolves the form.
            (0x2000, 0x9000, EdgeKind::Direct),
            (0x2000, arm_a(1), EdgeKind::CondTaken),
            (0x2000, arm_b(1), EdgeKind::CondNotTaken),
        ];
        for i in 1..=8u64 {
            // Arm A is a no-op for the sliced register; arm B shifts it
            // by a per-diamond power of two so every path's accumulated
            // constant is distinct (2^7 states by mid-chain).
            let mut a = vec![];
            encode::alu_ri(&mut a, AluKind::Add, Reg::RAX, 0);
            let mut b = vec![];
            encode::alu_ri(&mut b, AluKind::Add, Reg::RAX, 1 << i);
            let a_insns = decode_seq(&a, arm_a(i));
            let b_insns = decode_seq(&b, arm_b(i));
            block_data.push((arm_a(i), arm_a(i) + a.len() as u64, a_insns));
            block_data.push((arm_b(i), arm_b(i) + b.len() as u64, b_insns));
            if i < 8 {
                for src in [arm_a(i), arm_b(i)] {
                    edges.push((src, arm_a(i + 1), EdgeKind::CondTaken));
                    edges.push((src, arm_b(i + 1), EdgeKind::CondNotTaken));
                }
            } else {
                edges.push((arm_a(i), 0x9000, EdgeKind::Direct));
                edges.push((arm_b(i), 0x9000, EdgeKind::Direct));
            }
        }
        let view = VecView::new(0x1000, block_data, edges);

        let outcome =
            slice_indirect_jump_with(&view, 0x9000, ExecutorKind::Serial).expect("indirect jump");
        assert!(outcome.widened, "the diamond fan-out must trip MAX_PATHS widening");
        let hit = outcome
            .facts
            .iter()
            .filter(|f| f.form.is_some())
            .max_by_key(|f| f.bound.is_some())
            .expect("bypass path must survive widening");
        assert_eq!(
            hit.form,
            Some(JumpTableForm::Relative {
                table: 0x2100,
                base: 0x2100,
                scale: 4,
                width: 4,
                index: Reg::RSI
            })
        );
        assert_eq!(hit.bound, Some(8));

        // Spec-level: no block's fixpoint fact may exceed the widening
        // cap (+1 for the Top marker widening leaves behind, +1 for the
        // jump block's seed which joins after widening).
        let spec = SliceSpec::build(&view, 0x9000, &backward_cone(&view, 0x9000)).expect("spec");
        let output = fixpoint_outputs(&spec, &spec.graph);
        for (b, fact) in spec.graph.blocks.iter().zip(&output) {
            assert!(
                fact.states.len() <= MAX_PATHS + 2,
                "block {b:#x} holds {} states",
                fact.states.len()
            );
        }
    }

    /// An edge from an address that is not a block of the view is not
    /// part of the view (the `CfgView` edge contract), so it cannot pull
    /// a phantom block into the cone.
    #[test]
    fn pred_edge_from_a_non_block_changes_nothing() {
        let mut view = absolute_table_view();
        view.edges.push((0x7000, 0x2000, EdgeKind::Direct));
        let baseline =
            slice_indirect_jump_with(&absolute_table_view(), 0x2000, ExecutorKind::Serial);
        assert!(baseline.as_ref().is_some_and(|o| o.facts.iter().any(|f| f.bound == Some(5))));
        assert_eq!(slice_indirect_jump_with(&view, 0x2000, ExecutorKind::Serial), baseline);
    }

    /// The slice is local to the jump's backward cone: a jump at the end
    /// of a 12-block chain sees only its last `MAX_DEPTH + 1` blocks, so
    /// cutting the rest off (the guard at the chain's head included)
    /// changes nothing.
    #[test]
    fn slice_reads_only_the_backward_cone() {
        let at = |i: u64| 0x1000 + i * 0x100;
        let mut block_data = Vec::new();
        for i in 0..12u64 {
            let mut code = vec![];
            match i {
                0 => {
                    encode::cmp_ri(&mut code, Reg::RDI, 4);
                    let j = encode::jcc_rel32(&mut code, Cond::A);
                    encode::patch_rel32(&mut code, j, 0x2000);
                }
                11 => {
                    encode::jmp_ind_mem(&mut code, &MemRef::base_index(None, Reg::RDI, 8, 0x601000))
                }
                // Links leave the index alone: the one unbounded path
                // walks the chain until it dies at MAX_DEPTH.
                _ => encode::alu_ri(&mut code, AluKind::Add, Reg::RAX, 1),
            }
            let insns = decode_seq(&code, at(i));
            block_data.push((at(i), at(i) + code.len() as u64, insns));
        }
        let mut edges: Vec<_> =
            (0..11u64).map(|i| (at(i), at(i + 1), EdgeKind::CondNotTaken)).collect();
        edges.push((at(0), 0x9000, EdgeKind::CondTaken));
        let full = VecView::new(at(0), block_data.clone(), edges.clone());

        let keep = 11 - MAX_DEPTH as u64;
        block_data.retain(|b| b.0 >= at(keep));
        edges.retain(|e| e.0 >= at(keep));
        let cut = VecView::new(at(keep), block_data, edges);

        let outcome =
            slice_indirect_jump_with(&full, at(11), ExecutorKind::Serial).expect("indirect jump");
        assert_eq!(outcome.facts.len(), MAX_DEPTH + 1, "one state per cone block: {outcome:?}");
        assert!(outcome.facts.iter().all(|f| f.form.is_some() && f.bound.is_none()));
        assert_eq!(slice_indirect_jump_with(&cut, at(11), ExecutorKind::Serial), Some(outcome));
    }

    /// A pseudo-random expression over the shapes the slice builds —
    /// sums with constants anywhere, products (by 1 too), loads of every
    /// width, a few registers — including the ones `simplify` does not
    /// reach a fixed point on in one pass (a product by 1 of a sum).
    fn random_expr(seed: &mut u64, depth: u32) -> Expr {
        let mut next = |n: u64| {
            *seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (*seed >> 33) % n
        };
        let leaf = depth == 0 || next(3) == 0;
        if leaf {
            return match next(6) {
                0 => Expr::Const(0),
                1 | 2 => Expr::Const([8, 0x601000, u64::MAX, 0x2100][next(4) as usize]),
                3 => Expr::Top,
                _ => Expr::Reg([Reg::RAX, Reg::RDI, Reg::RSI][next(3) as usize]),
            };
        }
        let pick = next(4);
        let width = [1u8, 4, 8][next(3) as usize];
        let scale = [1u64, 4, 8, 16][next(4) as usize];
        match pick {
            0 | 1 => Expr::Add(
                Box::new(random_expr(seed, depth - 1)),
                Box::new(random_expr(seed, depth - 1)),
            ),
            2 => Expr::Mul(Box::new(random_expr(seed, depth - 1)), scale),
            _ => Expr::Load { width, sext: false, addr: Box::new(random_expr(seed, depth - 1)) },
        }
    }

    /// The allocation-free fast paths agree with the definitions they
    /// shortcut: `is_simplified` only holds where `simplify` is the
    /// identity, `single_atom` reads the same atom and constant
    /// `as_sum` collects, and `classify` matches the original
    /// simplify-then-flatten match on every expression, simplified or
    /// not.
    #[test]
    fn fast_classification_matches_the_flattening_match() {
        let mut seed = 0x51CE;
        let (mut simplified, mut forms) = (0, 0);
        for _ in 0..20_000 {
            let e = random_expr(&mut seed, 5);
            let s = e.simplify();
            for x in [&e, &s] {
                if x.is_simplified() {
                    simplified += 1;
                    assert_eq!(&x.simplify(), x, "is_simplified on {x:?}");
                    let (atoms, k) = x.as_sum();
                    let want = (atoms.len() == 1).then(|| (&atoms[0], k));
                    assert_eq!(x.single_atom(), want, "single_atom of {x:?}");
                }
            }
            let want = classify_sum(&s);
            forms += want.is_some() as u32;
            assert_eq!(classify(&e), want, "classify {e:?}");
            assert_eq!(classify(&s), classify_sum(&s.simplify()), "classify {s:?}");
        }
        assert!(simplified > 5_000 && forms > 50, "{simplified} simplified, {forms} forms");
    }

    /// A target crossing a block that writes none of its registers is
    /// passed on as it is when it is simplified, and simplified when it
    /// is not — what walking it through the block did before targets
    /// were shared.
    #[test]
    fn a_target_crosses_an_unrelated_block_simplified() {
        let view = absolute_table_view();
        let spec = SliceSpec::build(&view, 0x2000, &backward_cone(&view, 0x2000)).expect("spec");
        // The guard block `cmp rdi, 4 ; ja` writes only flags.
        let guard = spec.graph.id(0x1000).expect("cone block");
        // rsi + (rax + 8) * 1: one pass leaves the inner sum unflattened.
        let inner = Expr::Add(Box::new(Expr::Reg(Reg::RAX)), Box::new(Expr::Const(8)));
        let e = Expr::Add(Box::new(Expr::Reg(Reg::RSI)), Box::new(Expr::Mul(Box::new(inner), 1)));
        let once = e.simplify();
        assert!(!once.is_simplified(), "{once:?}");
        let walked = spec.walk(guard, &Target::new(once.clone()));
        assert_eq!(walked.expr, once.simplify());
        assert!(walked.simplified);
        assert!(Arc::ptr_eq(&spec.walk(guard, &walked), &walked), "shared, not rebuilt");
    }

    #[test]
    fn union_over_paths_survives_one_bad_path() {
        // Two predecessors: one provides a clean guard, the other
        // clobbers the index register with an unmodeled op. The good
        // path's fact must still be produced (monotonicity fix).
        let view0 = absolute_table_view();
        let mut bad = vec![];
        encode::pop_r(&mut bad, Reg::RDI); // unmodeled def of the index
        let j = encode::jmp_rel32(&mut bad);
        encode::patch_rel32(&mut bad, j, 0x2000u32 as usize);
        let bad_insns = decode_seq(&bad, 0x5000);
        let bad_end = 0x5000 + bad.len() as u64;

        let mut view = view0;
        view.block_data.push((0x5000, bad_end, bad_insns));
        view.edges.push((0x5000, 0x2000, EdgeKind::Direct));

        let facts = facts_of(&view, 0x2000);
        assert!(
            facts.iter().any(|f| f.form.is_some() && f.bound == Some(5)),
            "good path must survive: {facts:?}"
        );
    }
}
