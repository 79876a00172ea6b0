package lint

// rarlint directives. Every directive is a comment of the form
// //rarlint:<verb> ...:
//
//	//rarlint:allow <check> <reason>    suppress one audited finding
//	//rarlint:guardedby <mu|atomic|init> a struct field readable only under
//	                                    the named sibling mutex (or via
//	                                    sync/atomic, or set before sharing)
//	//rarlint:locked <mu>               a method whose contract is "called
//	                                    with the receiver's mu held"
//
// allow governs lines: it suppresses a finding on its own line, or, when
// it stands alone on its line, on the line below. The other two verbs
// govern a declaration and go in that declaration's doc comment or
// trailing comment, the groups go/ast attaches to it (Field.Doc,
// Field.Comment, FuncDecl.Doc); directives stack there in any order.
// The loader resolves each one once, after type-checking, to the
// types.Object it governs, and the analyzers look directives up by
// object — none counts lines.
//
// A directive must be well-formed — allow names exactly one existing
// check and carries a reason, guardedby and locked carry a lock
// argument — and must stay *live*: an allow that no longer suppresses
// anything, and a declaration directive its check never consumed (it
// governs no declaration, the wrong kind of declaration, or one the
// check does not audit), are themselves reported, so a waiver can never
// silently rot into a blanket exemption. Any other verb is unknown, so a
// retired waiver carried over from an old branch is reported too.
// Malformed directives and stale allows surface as findings of the
// "lint" pseudo-check, an unconsumed declaration directive as a finding
// of its owning check; none of them can be suppressed.

import (
	"bytes"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Directive verbs.
const (
	verbAllow     = "allow"
	verbGuardedBy = "guardedby"
	verbLocked    = "locked"
)

// Declaration kinds, the bits of a verb's target.
const (
	onField  = 1 << iota // a struct field
	onFunc               // a function declaration
	onMethod             // a method declaration
)

// verbSpec is one row of the directive vocabulary: the check that
// consumes the verb, the declarations it may govern, and what it must
// carry.
type verbSpec struct {
	check  string // "" for allow, which serves every check
	target int    // onField|onFunc|onMethod bits; 0 for allow
	arg    string // what the required first argument names
	reason bool   // words must follow the argument
}

var verbs = map[string]verbSpec{
	verbAllow:     {arg: "check name", reason: true},
	verbGuardedBy: {check: "lockcheck", target: onField, arg: "lock argument (a sibling mutex field, atomic, or init)"},
	verbLocked:    {check: "lockcheck", target: onMethod, arg: "mutex field name"},
}

// targetNames renders a verb's target in "not attached" findings.
var targetNames = map[int]string{
	onField:  "a struct field",
	onMethod: "a method declaration",
}

// directive is one parsed //rarlint: comment.
type directive struct {
	verb string
	args []string // the words after the verb
	pos  token.Position
	// alone reports that the comment is the first thing on its line.
	alone bool
	// problem says why the directive is malformed ("" when well-formed).
	problem string
	// used records that the owning check consumed the directive (for an
	// allow: that it suppressed a finding).
	used bool
}

// lineKey locates an allow directive.
type lineKey struct {
	file string
	line int
}

const directivePrefix = "//rarlint:"

// resolveDirectives parses every //rarlint: comment of f, a file of the
// type-checked package p, and attaches each declaration directive to the
// objects declared by the struct field or function whose doc or trailing
// comment holds it, provided its verb's target accepts that kind of
// declaration. src is f's source, which tells a comment standing alone
// on its line from one trailing code.
func (m *Module) resolveDirectives(p *Package, f *ast.File, src []byte) {
	type owner struct {
		names []*ast.Ident
		kind  int
	}
	owners := map[*ast.CommentGroup]owner{}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.StructType:
			for _, fld := range n.Fields.List {
				owners[fld.Doc] = owner{fld.Names, onField}
				owners[fld.Comment] = owner{fld.Names, onField}
			}
		case *ast.FuncDecl:
			o := owner{[]*ast.Ident{n.Name}, onFunc}
			if n.Recv != nil {
				o.kind = onMethod
			}
			owners[n.Doc] = o
		}
		return true
	})
	delete(owners, nil)

	tf := m.Fset.File(f.Pos())
	for _, cg := range f.Comments {
		o := owners[cg]
		for _, c := range cg.List {
			rest, ok := strings.CutPrefix(c.Text, directivePrefix)
			if !ok {
				continue
			}
			d := &directive{verb: rest, pos: m.Fset.Position(c.Pos())}
			if i := strings.IndexAny(rest, " \t"); i >= 0 {
				d.verb, d.args = rest[:i], strings.Fields(rest[i:])
			}
			d.problem = d.validate()
			m.directives = append(m.directives, d)
			if d.verb == verbAllow {
				lineStart := tf.Offset(tf.LineStart(d.pos.Line))
				d.alone = len(bytes.TrimSpace(src[lineStart:d.pos.Offset])) == 0
				k := lineKey{d.pos.Filename, d.pos.Line}
				m.allows[k] = append(m.allows[k], d)
			} else if verbs[d.verb].target&o.kind != 0 {
				for _, name := range o.names {
					if obj := p.Info.Defs[name]; obj != nil {
						m.byObj[obj] = append(m.byObj[obj], d)
					}
				}
			}
		}
	}
}

// validate returns why d is malformed, or "" when it is well-formed.
// Directives are validated even when Run's checks argument leaves out
// the check they serve: a typo must not hide behind a filter.
func (d *directive) validate() string {
	v, ok := verbs[d.verb]
	switch {
	case !ok:
		known := make([]string, 0, len(verbs))
		for name := range verbs {
			known = append(known, name)
		}
		sort.Strings(known)
		return "unknown rarlint directive //rarlint:" + d.verb + " (have " + strings.Join(known, ", ") + ")"
	case len(d.args) == 0:
		return "malformed rarlint:" + d.verb + ": missing " + v.arg
	case d.verb == verbAllow && !knownCheck(d.args[0]):
		return "malformed rarlint:allow: unknown check " + d.args[0]
	case v.reason && len(d.args) == 1:
		return strings.Join(append([]string{"rarlint:" + d.verb}, d.args...), " ") + " needs a reason"
	}
	return ""
}

// directiveFor returns the well-formed verb directive governing obj, or
// nil, marking it used. Each verb is consumed by exactly one check, so
// concurrently running analyzers never mark the same directive.
func (m *Module) directiveFor(obj types.Object, verb string) *directive {
	for _, d := range m.byObj[obj] {
		if d.verb == verb && d.problem == "" {
			d.used = true
			return d
		}
	}
	return nil
}

// allowed reports whether a well-formed allow for check governs the line
// at pos: one on that line, else one standing alone on the line above.
// Matching allows are marked used.
func (m *Module) allowed(check string, pos token.Position) bool {
	for _, line := range []int{pos.Line, pos.Line - 1} {
		hit := false
		for _, a := range m.allows[lineKey{pos.Filename, line}] {
			if a.problem == "" && a.args[0] == check && (line == pos.Line || a.alone) {
				a.used = true
				hit = true
			}
		}
		if hit {
			return true
		}
	}
	return false
}

// suppress drops the diagnostics an allow directive governs. Findings of
// the "lint" pseudo-check cannot be suppressed.
func (m *Module) suppress(diags []Diagnostic) []Diagnostic {
	out := diags[:0]
	for _, d := range diags {
		if d.Check == "lint" || !m.allowed(d.Check, d.Pos) {
			out = append(out, d)
		}
	}
	return out
}

// directiveFindings reports, after the checks in ran have run and
// suppression is done, every malformed directive, every well-formed
// declaration directive its check ran without consuming, and — only when
// every check ran, since under Run's checks filter an allow for a check
// that did not run is dormant, not stale — every allow that suppressed
// nothing.
func (m *Module) directiveFindings(ran map[string]bool) []Diagnostic {
	all := len(ran) == len(Analyzers())
	var diags []Diagnostic
	for _, d := range m.directives {
		v := verbs[d.verb]
		switch {
		case d.problem != "":
			diags = append(diags, Diagnostic{Pos: d.pos, Check: "lint", Message: d.problem})
		case d.used:
		case d.verb == verbAllow:
			if all {
				diags = append(diags, Diagnostic{Pos: d.pos, Check: "lint",
					Message: "stale rarlint:allow " + d.args[0] + ": no " + d.args[0] +
						" finding on this line; remove the directive"})
			}
		case ran[v.check]:
			diags = append(diags, Diagnostic{Pos: d.pos, Check: v.check,
				Message: "rarlint:" + d.verb + " is not attached to " + targetNames[v.target] +
					" that " + v.check + " checks"})
		}
	}
	return diags
}
