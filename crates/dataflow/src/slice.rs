//! Backward slicing + symbolic evaluation of indirect-jump targets,
//! expressed as a [`DataflowSpec`] over the generic engine.
//!
//! From the indirect jump, definitions are walked backward — first
//! within the jump's block, then across intra-procedural predecessor
//! edges — substituting each definition into the target expression.
//! Along the way, `cmp index, N` + conditional-branch facts that bound
//! the index on a path are collected via the engine's edge-kind-aware
//! [`DataflowSpec::edge_transfer`] hook.
//!
//! The lattice fact ([`PathSet`]) is a bounded set of per-path states
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
//! [`slice_indirect_jump`] builds the [`SliceSpec`], runs it under the
//! [`crate::engine::SerialExecutor`] (see [`slice_indirect_jump_with`]
//! for an explicit executor — the spec is executor-agnostic), and reads
//! the per-path facts back out of the block boundaries.

use crate::engine::{DataflowResults, DataflowSpec, Direction, FlowGraph};
use crate::expr::Expr;
use crate::view::CfgView;
use pba_cfg::EdgeKind;
use pba_isa::{insn::AluKind, insn::Cond, insn::ShiftKind, Insn, Op, Place, Reg, Value};
use std::collections::{BTreeSet, HashMap};

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
/// expression. Returns the updated expression.
fn reverse_transfer(i: &Insn, wanted: Expr) -> Expr {
    let written = i.regs_written();
    // Fast reject: instruction doesn't define anything we track.
    if written.intersect(wanted.free_regs()).is_empty() {
        return wanted;
    }
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
            for r in written.iter() {
                if r.is_gpr() {
                    w = w.subst(r, &Expr::Top);
                }
            }
            w
        }
    }
}

/// Extract a bound from a predecessor's terminator: `cmp r, N` followed
/// by a conditional branch whose `kind`-side edge we arrived through.
///
/// The `cmp` need not be adjacent to the `jcc`: the scan walks back
/// over any instruction that does not write a flag the condition reads
/// ([`Insn::flags_written`] vs [`Cond::flags_read`]) — so a `mov`, a
/// `lea`, or an `inc`/`dec` (no CF write) between a `cmp` and the
/// CF-consuming `jb`/`jae` keeps the bound, while anything genuinely
/// redefining a consumed flag (including unmodeled instructions, which
/// conservatively write all flags) stops the scan.
fn bound_from_pred(
    insns: &[Insn],
    edge_kind: EdgeKind,
    tracked: pba_isa::RegSet,
) -> Option<(Reg, u64)> {
    let term = insns.last()?;
    let Op::Jcc { cond, .. } = term.op else { return None };
    // Find the instruction that last defined the flags the branch
    // consumes; it must be the guarding compare.
    let consumed = cond.flags_read();
    let cmp = insns.iter().rev().skip(1).find(|i| i.flags_written().intersects(consumed))?;
    let Op::Cmp { a: Value::Reg(r), b: Value::Imm(n), .. } = cmp.op else { return None };
    if !tracked.contains(r) || n < 0 {
        return None;
    }
    let n = n as u64;
    // Which side of the branch leads to the jump table?
    let via_taken = edge_kind == EdgeKind::CondTaken;
    let bound = match (cond, via_taken) {
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
    Some((r, bound))
}

/// Try to match the simplified expression against the known dispatch
/// forms.
fn classify(e: &Expr) -> Option<JumpTableForm> {
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

    let e = e.simplify();
    // Absolute: load8(table + idx*scale).
    if let Expr::Load { width: 8, addr, .. } = &e {
        let (table, index, scale) = match_table_addr(addr)?;
        return Some(JumpTableForm::Absolute { table, scale, index });
    }
    // Relative: base + sext(load4(table + idx*scale)).
    let (atoms, base) = e.as_sum();
    if atoms.len() == 1 {
        if let Expr::Load { width, sext: _, addr } = &atoms[0] {
            if *width == 4 {
                let (table, index, scale) = match_table_addr(addr)?;
                return Some(JumpTableForm::Relative { table, base, scale, width: *width, index });
            }
        }
    }
    None
}

/// Maximum blocks walked backward on one path (edge crossings).
pub const MAX_DEPTH: usize = 8;
/// Maximum path states held per block fact before widening.
pub const MAX_PATHS: usize = 64;

/// One backward path's state at a block boundary: the symbolic target
/// expression as seen from here, the guard bound captured closest to the
/// jump (if any), and how many edges the path has crossed.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct PathState {
    /// Symbolic jump-target expression at this boundary.
    pub expr: Expr,
    /// First `(index reg, exclusive bound)` guard met on the path.
    pub bound: Option<(Reg, u64)>,
    /// Edge crossings from the jump block (caps at [`MAX_DEPTH`]).
    pub depth: usize,
}

impl PathState {
    /// The per-path result this state contributes to the union.
    fn fact(&self) -> PathFact {
        if self.expr.has_top() {
            // Dead path: contributes nothing (union semantics).
            return PathFact { form: None, bound: None };
        }
        match classify(&self.expr) {
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
        if self.depth >= MAX_DEPTH || self.expr.has_top() {
            return true;
        }
        match classify(&self.expr) {
            Some(f) => self.bound.is_some_and(|(r, _)| f.index() == r),
            None => false,
        }
    }
}

/// The [`SliceSpec`] lattice fact: a bounded set of path states, ordered
/// for deterministic iteration. Union is the meet; exceeding
/// [`MAX_PATHS`] widens the set to the bare classified forms it already
/// contains.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PathSet {
    /// The per-path states.
    pub states: BTreeSet<PathState>,
}

impl PathSet {
    /// The widening operator. Keeps only states whose expression already
    /// classifies as a dispatch form — frozen at [`MAX_DEPTH`] so they
    /// stop propagating — and collapses everything else into a single
    /// `Top` marker. Still-ambiguous paths are given up on, the same
    /// trade the old DFS made with its global path cap; classified
    /// states survive up to the hard [`MAX_PATHS`] cap, those carrying
    /// a guard bound kept preferentially (a bounded form is what makes
    /// the eventual table scan exact, so it is the last thing to drop).
    ///
    /// Note this is *unconditional*: whether to widen is decided per
    /// block by [`SliceSpec::transfer`], stickily — see there for why.
    fn widen(&mut self) {
        let classified = self
            .states
            .iter()
            .filter(|s| !s.expr.has_top() && classify(&s.expr).is_some())
            .map(|s| PathState { expr: s.expr.clone(), bound: s.bound, depth: MAX_DEPTH });
        let (bounded, bare): (Vec<PathState>, Vec<PathState>) =
            classified.partition(|s| s.bound.is_some());
        let kept: BTreeSet<PathState> = bounded.into_iter().chain(bare).take(MAX_PATHS).collect();
        self.states = kept;
        self.states.insert(PathState { expr: Expr::Top, bound: None, depth: MAX_DEPTH });
    }
}

/// Backward walk through a block, stopping as soon as the expression
/// classifies: substituting past the resolution point would let
/// unrelated (or, in over-approximated split blocks, garbage)
/// definitions clobber an already-complete dispatch pattern.
fn walk_back(insns: &[Insn], skip_last: usize, mut expr: Expr) -> Expr {
    for i in insns.iter().rev().skip(skip_last) {
        if classify(&expr).is_some() {
            break;
        }
        expr = reverse_transfer(i, expr);
    }
    expr.simplify()
}

/// Backward jump-table slicing as a [`DataflowSpec`].
///
/// * **Fact**: [`PathSet`] — bounded set of `(expr, bound, depth)` path
///   states at each block boundary (entry side, since the problem is
///   backward).
/// * **Meet**: set union.
/// * **Transfer**: walk every state's expression backward through the
///   block's instructions, then enforce [`MAX_PATHS`] by sticky
///   widening; the jump block additionally injects the seed state (the
///   target expression walked back from the terminator).
/// * **Edge transfer**: crossing the CFG edge `p → b` backward drops
///   terminal states, bumps `depth`, and attaches the guard bound
///   extracted from `p`'s `cmp`+`jcc` terminator for the edge kind
///   actually taken — the part a direction-only engine cannot express,
///   hence [`DataflowSpec::edge_transfer`].
pub struct SliceSpec<'a> {
    jump_block: u64,
    seed: PathSet,
    /// Instructions of every block in the jump's backward cone (the
    /// blocks within [`MAX_DEPTH`] predecessor edges) — the only blocks
    /// a path state can ever reach, so the only ones worth touching
    /// (the old DFS had the same locality). Borrowed from the view's
    /// decode-once slices, nothing is copied or re-decoded; sorted by
    /// block address so lookups are binary searches over a flat array.
    insns: Vec<(u64, &'a [Insn])>,
    /// Blocks whose transfer has widened, stickily: once a block widens
    /// it keeps widening. Widening shrinks a fact (non-monotone), so
    /// without stickiness a cyclic CFG straddling [`MAX_PATHS`] could
    /// oscillate between widened and unwidened fixpoint candidates and
    /// the executor's worklist would never drain. Sticky widening means
    /// each block takes the one non-monotone step at most once; between
    /// and after those finitely many events the system is monotone, so
    /// the fixpoint iteration terminates.
    widened_blocks: std::sync::Mutex<std::collections::HashSet<u64>>,
}

impl<'a> SliceSpec<'a> {
    /// Build the spec for the indirect jump terminating `jump_block`.
    /// Returns `None` when the block's terminator is not an indirect
    /// jump.
    pub fn build(view: &'a dyn CfgView, jump_block: u64) -> Option<SliceSpec<'a>> {
        let jinsns = view.insns(jump_block);
        let term = jinsns.last()?;
        let Op::JmpInd { src } = term.op else { return None };

        let wanted = Expr::of_value(&src, 8, false);
        // The seed: the jump block walked backward, excluding the
        // terminator itself.
        let start_expr = walk_back(jinsns, 1, wanted);
        let mut seed = PathSet::default();
        seed.states.insert(PathState { expr: start_expr, bound: None, depth: 0 });

        // BFS the backward cone: blocks within MAX_DEPTH predecessor
        // edges of the jump. States die at MAX_DEPTH crossings, so
        // facts outside the cone are empty by construction and the rest
        // of the function's arena is never touched.
        let known: std::collections::HashSet<u64> = view.blocks().iter().copied().collect();
        let mut cone: HashMap<u64, &'a [Insn]> = HashMap::new();
        cone.insert(jump_block, jinsns);
        let mut frontier = vec![jump_block];
        for _ in 0..MAX_DEPTH {
            let mut next = Vec::new();
            for b in frontier {
                for &(p, _) in view.pred_edges(b) {
                    if known.contains(&p) && !cone.contains_key(&p) {
                        cone.insert(p, view.insns(p));
                        next.push(p);
                    }
                }
            }
            if next.is_empty() {
                break;
            }
            frontier = next;
        }
        let mut insns: Vec<(u64, &'a [Insn])> = cone.into_iter().collect();
        insns.sort_unstable_by_key(|&(a, _)| a);
        Some(SliceSpec {
            jump_block,
            seed,
            insns,
            widened_blocks: std::sync::Mutex::new(std::collections::HashSet::new()),
        })
    }

    /// Instructions of cone member `block` (binary search over the
    /// sorted member list).
    fn insns_of(&self, block: u64) -> Option<&'a [Insn]> {
        self.insns.binary_search_by_key(&block, |&(a, _)| a).ok().map(|i| self.insns[i].1)
    }

    /// The [`FlowGraph`] restricted to the jump's backward cone — what
    /// the spec should be executed over. Running over the full function
    /// graph is equally correct (facts outside the cone stay empty) but
    /// pays per-block fixpoint overhead for blocks that can never
    /// contribute. Member blocks are sorted for a deterministic dense
    /// order regardless of the view's iteration order.
    pub fn cone_graph(&self, view: &dyn CfgView) -> FlowGraph {
        let blocks: Vec<u64> = self.insns.iter().map(|&(a, _)| a).collect();
        let mut edges = Vec::new();
        for &b in &blocks {
            for &(d, kind) in view.succ_edges(b) {
                if self.insns_of(d).is_some() {
                    edges.push((b, d, kind));
                }
            }
        }
        FlowGraph::from_parts(blocks, view.entry(), &edges)
    }

    /// Union the per-path facts found at every block boundary of a
    /// fixpoint run — terminated paths rest where they terminated, so
    /// the whole boundary map is the answer. Blocks are visited in
    /// ascending address order for a deterministic fact list.
    pub fn collect_facts(&self, results: &DataflowResults<PathSet>) -> Vec<PathFact> {
        let mut order: Vec<usize> = (0..results.blocks().len()).collect();
        order.sort_unstable_by_key(|&i| results.blocks()[i]);
        let mut facts = Vec::new();
        for i in order {
            for s in &results.output[i].states {
                facts.push(s.fact());
            }
        }
        facts
    }

    /// Whether any block's transfer widened during the run (the sticky
    /// set is the single source of truth for widening).
    pub fn any_widened(&self) -> bool {
        !self.widened_blocks.lock().expect("widened_blocks").is_empty()
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
        let insns: &[Insn] = self.insns_of(block).unwrap_or(&[]);
        let mut out = PathSet { states: BTreeSet::new() };
        for s in &input.states {
            let expr = walk_back(insns, 0, s.expr.clone());
            out.states.insert(PathState { expr, bound: s.bound, depth: s.depth });
        }
        // Sticky widening (see `widened_blocks`): a block that once
        // exceeded MAX_PATHS keeps widening even if its input later
        // shrinks, so the one output-shrinking step happens at most
        // once per block and the fixpoint cannot oscillate.
        {
            let mut sticky = self.widened_blocks.lock().expect("widened_blocks");
            if sticky.contains(&block) || out.states.len() > MAX_PATHS {
                sticky.insert(block);
                drop(sticky);
                out.widen();
            }
        }
        if block == self.jump_block {
            // The seed joins after widening: the jump block's own state
            // is the anchor of the whole analysis and must survive even
            // when a cycle floods the block past the cap.
            out.states.extend(self.seed.states.iter().cloned());
        }
        out
    }

    fn edge_transfer(&self, src: u64, dst: u64, kind: EdgeKind, fact: &PathSet) -> Option<PathSet> {
        let _ = dst;
        let mut out = PathSet { states: BTreeSet::new() };
        let src_insns: &[Insn] = self.insns_of(src).unwrap_or(&[]);
        for s in fact.states.iter().filter(|s| !s.is_terminal()) {
            // The bound closest to the jump wins; tracked registers are
            // those of the expression *before* it is walked through the
            // guard block (the guard compares the value the dispatch
            // consumes).
            let pbound = bound_from_pred(src_insns, kind, s.expr.free_regs());
            out.states.insert(PathState {
                expr: s.expr.clone(),
                bound: s.bound.or(pbound),
                depth: s.depth + 1,
            });
        }
        Some(out)
    }
}

/// Everything one engine-backed slicing run produced.
#[derive(Debug, Clone)]
pub struct SliceOutcome {
    /// Per-path facts, unioned over every block boundary.
    pub facts: Vec<PathFact>,
    /// Whether any block's path set hit [`MAX_PATHS`] and widened.
    pub widened: bool,
}

/// Run the engine-backed slice for the indirect jump terminating
/// `jump_block`. Returns `None` if the terminator is not an indirect
/// jump.
pub fn slice_indirect_jump(view: &dyn CfgView, jump_block: u64) -> Option<SliceOutcome> {
    slice_indirect_jump_with(view, jump_block, crate::engine::ExecutorKind::Serial)
}

/// [`slice_indirect_jump`] under an explicit executor. Below
/// [`MAX_PATHS`] the spec is monotone, so both executors reach the same
/// fixpoint by construction. Widening is the caveat: whether a block
/// ever sees an input big enough to trip its sticky bit depends on
/// which *intermediate* predecessor outputs the schedule publishes, so
/// executor agreement on widening-heavy graphs is an empirical
/// property, not an a-priori one — `tests/slice_equiv.rs` pins it on
/// the generated corpus and on a fan-out that widens, and both
/// executors are individually deterministic, so any divergence shows
/// up as a hard test failure rather than a flake.
pub fn slice_indirect_jump_with(
    view: &dyn CfgView,
    jump_block: u64,
    exec: crate::engine::ExecutorKind,
) -> Option<SliceOutcome> {
    let spec = SliceSpec::build(view, jump_block)?;
    let graph = spec.cone_graph(view);
    let results = exec.run(&spec, &graph);
    Some(SliceOutcome { widened: spec.any_widened(), facts: spec.collect_facts(&results) })
}

/// Every `(function entry, jump block)` pair of a finalized CFG whose
/// block terminator is an indirect branch — the work list a
/// whole-binary slicing sweep fans out over (shared by the slice bench
/// and the executor-equivalence tests). Sorted for determinism.
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
    use crate::engine::{DataflowExecutor, SerialExecutor};
    use crate::view::VecView;
    use pba_isa::x86::{decode_one, encode};
    use pba_isa::MemRef;

    /// The per-path facts of the indirect jump terminating `jump_block`.
    fn facts_of(view: &dyn CfgView, jump_block: u64) -> Vec<PathFact> {
        slice_indirect_jump(view, jump_block).expect("indirect jump").facts
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
        assert!(slice_indirect_jump(&view, 0x1000).is_none());
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

        let outcome = slice_indirect_jump(&view, 0x9000).expect("indirect jump");
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
        let spec = SliceSpec::build(&view, 0x9000).expect("spec");
        let graph = spec.cone_graph(&view);
        let results = SerialExecutor.run(&spec, &graph);
        for (b, fact) in results.blocks().iter().zip(&results.output) {
            assert!(
                fact.states.len() <= MAX_PATHS + 2,
                "block {b:#x} holds {} states",
                fact.states.len()
            );
        }
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
