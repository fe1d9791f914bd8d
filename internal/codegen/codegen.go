// Package codegen is the back half of the offline compiler: it lowers the
// type-checked (and optimized) MiniC AST to the portable bytecode, emitting
// vectorized loops from the optimizer's VectorPlans and attaching the split
// compilation annotations (vectorization facts and hardware requirements) to
// the generated methods.
//
// In the paper's toolchain this corresponds to the CLI back end of GCC: the
// point where target-independent optimization results are frozen into the
// deployment format.
package codegen

import (
	"fmt"
	"sync"

	"repro/internal/anno"
	"repro/internal/cil"
	"repro/internal/minic"
	"repro/internal/opt"
)

// Options controls code generation.
type Options struct {
	// DisableVectorPlans ignores the optimizer's vectorization plans and
	// emits plain scalar loops. Used to produce the "scalar bytecode"
	// baseline of Table 1.
	DisableVectorPlans bool
	// DisableAnnotations suppresses all split-compilation annotations while
	// still emitting vectorized code. Used by ablation experiments.
	DisableAnnotations bool
	// AnnotationVersion selects the on-wire schema of the attached
	// annotations: anno.V0 (the default) emits the legacy bare streams,
	// anno.V1 the versioned envelope.
	AnnotationVersion uint32
}

// Compile lowers every function of the checked program into a verified
// bytecode module.
func Compile(chk *minic.Checked, moduleName string, opts Options) (*cil.Module, error) {
	mod := cil.NewModule(moduleName)
	g := generators.Get().(*generator)
	defer func() {
		clear(g.plans[:cap(g.plans)])
		clear(g.localSlot)
		clear(g.boundDecls)
		g.chk, g.info = nil, nil
		generators.Put(g)
	}()
	g.chk, g.opts = chk, opts
	for _, fn := range chk.Prog.Funcs {
		g.info = chk.Funcs[fn.Name]
		m, err := g.genFunc(fn)
		if err != nil {
			return nil, err
		}
		if err := mod.AddMethod(m); err != nil {
			return nil, err
		}
	}
	if err := cil.Verify(mod); err != nil {
		return nil, fmt.Errorf("codegen: generated module does not verify: %w", err)
	}
	return mod, nil
}

// generators recycles generators across compilations: genFunc clears a
// generator's builder buffers, slot maps and plan buffer instead of
// reallocating them, so a warm one emits code without growing any.
var generators = sync.Pool{New: func() any {
	return &generator{localSlot: make(map[*minic.Symbol]int), tempSlot: make(map[cil.Kind]int)}
}}

type generator struct {
	chk  *minic.Checked
	info *minic.FuncInfo
	opts Options

	b          cil.MethodBuilder
	params     []cil.Type
	localSlot  map[*minic.Symbol]int
	tempSlot   map[cil.Kind]int
	boundDecls map[*minic.Symbol]bool
	plans      []*opt.VectorPlan
}

func (g *generator) genFunc(fn *minic.FuncDecl) (*cil.Method, error) {
	g.params = g.params[:0]
	for _, p := range fn.Params {
		g.params = append(g.params, p.Type)
	}
	g.b.Reset(fn.Name, g.params, fn.Ret)
	clear(g.localSlot)
	clear(g.tempSlot)
	clear(g.boundDecls) // no-op on the nil map; it is created lazily
	g.plans = g.plans[:0]
	for _, sym := range g.info.Locals {
		g.localSlot[sym] = g.b.AddLocal(sym.Type)
	}

	if err := g.genBlock(fn.Body); err != nil {
		return nil, err
	}
	// Guarantee that control cannot fall off the end of the method. For
	// void functions this is the implicit return; for value-returning
	// functions whose control flow provably returns earlier, the epilogue
	// is unreachable but keeps the verifier's "falls off the end" rule
	// satisfied with a well-typed default value.
	if fn.Ret.Kind == cil.Void {
		g.b.Return()
	} else {
		g.emitZero(fn.Ret.Kind)
		g.b.Return()
	}

	m, err := g.b.Finish()
	if err != nil {
		return nil, err
	}
	if !g.opts.DisableAnnotations {
		if err := g.attachAnnotations(m); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// attachAnnotations records the vectorization facts and hardware
// requirements of the generated method at the configured schema version.
func (g *generator) attachAnnotations(m *cil.Method) error {
	if len(g.plans) > 0 {
		info := &anno.VectorInfo{}
		for _, p := range g.plans {
			info.Loops = append(info.Loops, anno.VectorLoop{
				LoopID:        p.LoopID,
				Elem:          p.Elem,
				Lanes:         p.Lanes,
				Pattern:       p.Pattern,
				NoAliasProven: true,
			})
		}
		if err := anno.AttachVectorInfoV(m, info, g.opts.AnnotationVersion); err != nil {
			return err
		}
	}

	req := &anno.HWReq{}
	var vecKinds uint64 // bit k: a vector op of kind k
	for _, in := range m.Code {
		if in.Op.IsVector() {
			req.UsesVector = true
			vecKinds |= 1 << in.Kind
		}
		if in.Kind.IsFloat() && (in.Op.IsBinaryArith() || in.Op.IsCompare() || in.Op == cil.LdcF ||
			in.Op == cil.Neg || in.Op == cil.Conv || in.Op == cil.LdElem || in.Op == cil.StElem) {
			req.UsesFloat = true
		}
	}
	for k := cil.Kind(0); vecKinds>>k != 0; k++ {
		if vecKinds&(1<<k) != 0 {
			req.VectorKinds = append(req.VectorKinds, k)
		}
	}
	// Static instruction count is the work proxy the runtime scheduler uses
	// to decide whether offloading is worth the dispatch latency.
	req.EstimatedWork = int64(len(m.Code))
	return anno.AttachHWReqV(m, req, g.opts.AnnotationVersion)
}

// ---- statements ------------------------------------------------------------

func (g *generator) genBlock(b *minic.BlockStmt) error {
	for _, s := range b.Stmts {
		if err := g.genStmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (g *generator) genStmt(s minic.Stmt) error {
	switch st := s.(type) {
	case *minic.BlockStmt:
		return g.genBlock(st)
	case *minic.DeclStmt:
		return g.genDecl(st)
	case *minic.AssignStmt:
		return g.genAssign(st)
	case *minic.IfStmt:
		return g.genIf(st)
	case *minic.WhileStmt:
		return g.genWhile(st)
	case *minic.ForStmt:
		return g.genFor(st)
	case *minic.ReturnStmt:
		if st.Value != nil {
			if err := g.genExpr(st.Value); err != nil {
				return err
			}
		}
		g.b.Return()
		return nil
	case *minic.ExprStmt:
		call, ok := st.X.(*minic.CallExpr)
		if !ok {
			return fmt.Errorf("codegen: expression statement is not a call")
		}
		if err := g.genExpr(call); err != nil {
			return err
		}
		if call.Type().Kind != cil.Void {
			g.b.Op(cil.Pop)
		}
		return nil
	}
	return fmt.Errorf("codegen: unknown statement %T", s)
}

// declSymbol finds the local symbol allocated by the checker for a
// declaration statement. Declarations and symbols are matched positionally
// through the localSlot map built from FuncInfo.Locals; since a DeclStmt does
// not carry its symbol, we locate it by name among locals that have not yet
// been bound to a declaration. To keep this robust with shadowing, the
// checker allocates locals in declaration order, so the first unbound local
// with a matching name is the right one.
func (g *generator) declSymbol(d *minic.DeclStmt) (*minic.Symbol, error) {
	for _, sym := range g.info.Locals {
		if sym.Name != d.Name || sym.Type != d.Typ {
			continue
		}
		if _, bound := g.boundDecls[sym]; bound {
			continue
		}
		if g.boundDecls == nil {
			g.boundDecls = make(map[*minic.Symbol]bool)
		}
		g.boundDecls[sym] = true
		return sym, nil
	}
	return nil, fmt.Errorf("codegen: no local slot for declaration of %q", d.Name)
}

func (g *generator) genDecl(d *minic.DeclStmt) error {
	sym, err := g.declSymbol(d)
	if err != nil {
		return err
	}
	if d.Init == nil {
		return nil
	}
	if err := g.genExpr(d.Init); err != nil {
		return err
	}
	return g.genStoreSym(sym)
}

func (g *generator) genAssign(a *minic.AssignStmt) error {
	switch lhs := a.LHS.(type) {
	case *minic.Ident:
		if err := g.genExpr(a.RHS); err != nil {
			return err
		}
		return g.genStoreSym(lhs.Sym)
	case *minic.IndexExpr:
		if err := g.genExpr(lhs.Arr); err != nil {
			return err
		}
		if err := g.genExpr(lhs.Index); err != nil {
			return err
		}
		if err := g.genExpr(a.RHS); err != nil {
			return err
		}
		g.b.OpK(cil.StElem, lhs.Type().Kind)
		return nil
	}
	return fmt.Errorf("codegen: unsupported assignment target %T", a.LHS)
}

func (g *generator) genIf(s *minic.IfStmt) error {
	elseL := g.b.NewLabel()
	endL := g.b.NewLabel()
	if err := g.genCondValue(s.Cond); err != nil {
		return err
	}
	g.b.BranchFalse(elseL)
	if err := g.genBlock(s.Then); err != nil {
		return err
	}
	g.b.Branch(endL)
	g.b.Bind(elseL)
	if s.Else != nil {
		if err := g.genBlock(s.Else); err != nil {
			return err
		}
	}
	g.b.Bind(endL)
	return nil
}

func (g *generator) genWhile(s *minic.WhileStmt) error {
	head := g.b.NewLabel()
	exit := g.b.NewLabel()
	g.b.Bind(head)
	if err := g.genCondValue(s.Cond); err != nil {
		return err
	}
	g.b.BranchFalse(exit)
	if err := g.genBlock(s.Body); err != nil {
		return err
	}
	g.b.Branch(head)
	g.b.Bind(exit)
	return nil
}

func (g *generator) genFor(s *minic.ForStmt) error {
	plan := opt.PlanOf(s)
	if plan != nil && !g.opts.DisableVectorPlans {
		return g.genVectorLoop(s, plan)
	}
	if s.Init != nil {
		if err := g.genStmt(s.Init); err != nil {
			return err
		}
	}
	head := g.b.NewLabel()
	exit := g.b.NewLabel()
	g.b.Bind(head)
	if s.Cond != nil {
		if err := g.genCondValue(s.Cond); err != nil {
			return err
		}
		g.b.BranchFalse(exit)
	}
	if err := g.genBlock(s.Body); err != nil {
		return err
	}
	if s.Post != nil {
		if err := g.genStmt(s.Post); err != nil {
			return err
		}
	}
	g.b.Branch(head)
	g.b.Bind(exit)
	return nil
}
