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
//! [`FlowGraph`] — the jump's backward cone, numbered densely in address
//! order — runs it to its fixpoint, and reads the per-path facts back out
//! of the block boundaries.

use crate::engine::{fixpoint_outputs, DataflowSpec, Direction, ExecutorKind, FlowGraph};
use crate::expr::Expr;
use crate::view::CfgView;
use pba_cfg::EdgeKind;
use pba_isa::{insn::AluKind, insn::Cond, insn::ShiftKind, Insn, Op, Place, Reg, Value};
use std::cell::Cell;
use std::collections::BTreeSet;

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
struct PathState {
    /// Symbolic jump-target expression at this boundary.
    expr: Expr,
    /// First `(index reg, exclusive bound)` guard met on the path.
    bound: Option<(Reg, u64)>,
    /// Edge crossings from the jump block (caps at [`MAX_DEPTH`]).
    depth: usize,
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
struct PathSet {
    /// The per-path states.
    states: BTreeSet<PathState>,
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
struct SliceSpec<'a> {
    jump_block: u64,
    seed: PathSet,
    /// The jump's backward cone (the blocks within [`MAX_DEPTH`]
    /// predecessor edges, the only blocks a path state can ever reach)
    /// in ascending address order: the one graph the spec runs on.
    graph: FlowGraph,
    /// Instructions of each cone block, by dense id. Borrowed from the
    /// view's decode-once slices; nothing is copied or re-decoded.
    insns: Vec<&'a [Insn]>,
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
    /// Build the spec for the indirect jump terminating `jump_block`.
    /// Returns `None` when the block's terminator is not an indirect
    /// jump.
    fn build(view: &'a dyn CfgView, jump_block: u64) -> Option<SliceSpec<'a>> {
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
        // of the function is never touched. `pred_edges` names member
        // blocks only, so every block found is one of the view's.
        let mut cone = vec![jump_block];
        let mut level = 0..1;
        for _ in 0..MAX_DEPTH {
            for i in level.clone() {
                for &(p, _) in view.pred_edges(cone[i]) {
                    if !cone.contains(&p) {
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
        let mut edges = Vec::new();
        for &b in &cone {
            edges.extend(view.succ_edges(b).iter().map(|&(d, kind)| (b, d, kind)));
        }
        let insns = cone.iter().map(|&b| view.insns(b)).collect();
        let widened = cone.iter().map(|_| Cell::new(false)).collect();
        let graph = FlowGraph::from_parts(cone, view.entry(), &edges);
        Some(SliceSpec { jump_block, seed, graph, insns, widened })
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
        let i = self.graph.index().get(block).expect("cone block");
        let mut out = PathSet { states: BTreeSet::new() };
        for s in &input.states {
            let expr = walk_back(self.insns[i], 0, s.expr.clone());
            out.states.insert(PathState { expr, bound: s.bound, depth: s.depth });
        }
        // Sticky widening (see `widened`): a block that once exceeded
        // MAX_PATHS keeps widening even if its input later shrinks, so
        // the one output-shrinking step happens at most once per block
        // and the fixpoint cannot oscillate.
        if self.widened[i].get() || out.states.len() > MAX_PATHS {
            self.widened[i].set(true);
            out.widen();
        }
        if block == self.jump_block {
            // The seed joins after widening: the jump block's own state
            // is the anchor of the whole analysis and must survive even
            // when a cycle floods the block past the cap.
            out.states.extend(self.seed.states.iter().cloned());
        }
        out
    }

    fn edge_transfer(
        &self,
        src: u64,
        _dst: u64,
        kind: EdgeKind,
        fact: &PathSet,
    ) -> Option<PathSet> {
        let mut out = PathSet { states: BTreeSet::new() };
        let src_insns = self.insns[self.graph.index().get(src).expect("cone block")];
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
/// so the outcome is too; `tests/slice_equiv.rs` pins it on the
/// generated corpus and on a fan-out that widens.
pub fn slice_indirect_jump_with(
    view: &dyn CfgView,
    jump_block: u64,
    _exec: ExecutorKind,
) -> Option<SliceOutcome> {
    let spec = SliceSpec::build(view, jump_block)?;
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
        let spec = SliceSpec::build(&view, 0x9000).expect("spec");
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
