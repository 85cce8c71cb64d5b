package xacml

import (
	"fmt"
	"strconv"
	"strings"
)

// Format renders the policy in the package's compact textual form, the
// same format ParsePolicy reads:
//
//	policy "p1" deny-overrides {
//	  target subject.role = dba
//	  rule "r1" permit {
//	    target resource.type = report, action.id = read
//	    condition subject.age >= 18 and not (subject.temp = 1)
//	  }
//	}
func (p *Policy) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "policy %q %s {\n", p.ID, p.Combining)
	if len(p.Target) > 0 {
		fmt.Fprintf(&sb, "  target %s\n", formatTarget(p.Target))
	}
	for _, ru := range p.Rules {
		fmt.Fprintf(&sb, "  rule %q %s {\n", ru.ID, strings.ToLower(ru.Effect.String()))
		if len(ru.Target) > 0 {
			fmt.Fprintf(&sb, "    target %s\n", formatTarget(ru.Target))
		}
		if ru.Condition != nil {
			fmt.Fprintf(&sb, "    condition %s\n", ru.Condition.String())
		}
		sb.WriteString("  }\n")
	}
	sb.WriteString("}\n")
	return sb.String()
}

func formatTarget(t Target) string {
	parts := make([]string, len(t))
	for i, m := range t {
		parts[i] = m.String()
	}
	return strings.Join(parts, ", ")
}

// ParsePolicy parses the compact textual policy form produced by Format.
func ParsePolicy(src string) (*Policy, error) {
	p := &policyParser{toks: tokenizePolicy(src)}
	pol, err := p.policy()
	if err != nil {
		return nil, err
	}
	if !p.eof() {
		return nil, fmt.Errorf("xacml: trailing input %q", p.peek())
	}
	return pol, nil
}

// ParsePolicies parses a sequence of policy blocks — a whole corpus
// file — in the same textual form. Policy ids must be unique.
func ParsePolicies(src string) ([]*Policy, error) {
	p := &policyParser{toks: tokenizePolicy(src)}
	var out []*Policy
	seen := make(map[string]bool)
	for !p.eof() {
		pol, err := p.policy()
		if err != nil {
			return nil, err
		}
		if seen[pol.ID] {
			return nil, fmt.Errorf("xacml: duplicate policy id %q", pol.ID)
		}
		seen[pol.ID] = true
		out = append(out, pol)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("xacml: no policies in input")
	}
	return out, nil
}

func tokenizePolicy(src string) []string {
	var toks []string
	i := 0
	n := len(src)
	for i < n {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '#':
			for i < n && src[i] != '\n' {
				i++
			}
		case c == '{' || c == '}' || c == ',' || c == '(' || c == ')':
			toks = append(toks, string(c))
			i++
		case c == '"':
			j := i + 1
			var sb strings.Builder
			for j < n && src[j] != '"' {
				if src[j] == '\\' && j+1 < n {
					sb.WriteByte(src[j+1])
					j += 2
					continue
				}
				sb.WriteByte(src[j])
				j++
			}
			toks = append(toks, "\""+sb.String())
			i = j + 1
		case c == '!' || c == '<' || c == '>' || c == '=':
			j := i + 1
			if j < n && src[j] == '=' {
				j++
			}
			toks = append(toks, src[i:j])
			i = j
		default:
			j := i
			for j < n && !strings.ContainsRune(" \t\n\r{}(),\"!<>=#", rune(src[j])) {
				j++
			}
			toks = append(toks, src[i:j])
			i = j
		}
	}
	return toks
}

type policyParser struct {
	toks []string
	pos  int
}

func (p *policyParser) eof() bool { return p.pos >= len(p.toks) }

func (p *policyParser) peek() string {
	if p.eof() {
		return ""
	}
	return p.toks[p.pos]
}

func (p *policyParser) next() string {
	t := p.peek()
	p.pos++
	return t
}

func (p *policyParser) expect(tok string) error {
	if got := p.next(); got != tok {
		return fmt.Errorf("xacml: expected %q, found %q", tok, got)
	}
	return nil
}

func (p *policyParser) quoted() (string, error) {
	t := p.next()
	if !strings.HasPrefix(t, "\"") {
		return "", fmt.Errorf("xacml: expected quoted identifier, found %q", t)
	}
	return t[1:], nil
}

func (p *policyParser) policy() (*Policy, error) {
	if err := p.expect("policy"); err != nil {
		return nil, err
	}
	id, err := p.quoted()
	if err != nil {
		return nil, err
	}
	alg, err := CombiningAlgFromString(p.next())
	if err != nil {
		return nil, err
	}
	if err := p.expect("{"); err != nil {
		return nil, err
	}
	pol := &Policy{ID: id, Combining: alg}
	for p.peek() != "}" && !p.eof() {
		switch p.peek() {
		case "target":
			p.next()
			t, err := p.target()
			if err != nil {
				return nil, err
			}
			pol.Target = t
		case "rule":
			ru, err := p.rule()
			if err != nil {
				return nil, err
			}
			pol.Rules = append(pol.Rules, ru)
		default:
			return nil, fmt.Errorf("xacml: unexpected token %q in policy body", p.peek())
		}
	}
	if err := p.expect("}"); err != nil {
		return nil, err
	}
	return pol, nil
}

func (p *policyParser) rule() (Rule, error) {
	var ru Rule
	if err := p.expect("rule"); err != nil {
		return ru, err
	}
	id, err := p.quoted()
	if err != nil {
		return ru, err
	}
	ru.ID = id
	switch eff := p.next(); eff {
	case "permit":
		ru.Effect = Permit
	case "deny":
		ru.Effect = Deny
	default:
		return ru, fmt.Errorf("xacml: unknown effect %q", eff)
	}
	if err := p.expect("{"); err != nil {
		return ru, err
	}
	for p.peek() != "}" && !p.eof() {
		switch p.peek() {
		case "target":
			p.next()
			t, err := p.target()
			if err != nil {
				return ru, err
			}
			ru.Target = t
		case "condition":
			p.next()
			c, err := p.orExpr()
			if err != nil {
				return ru, err
			}
			ru.Condition = &c
		default:
			return ru, fmt.Errorf("xacml: unexpected token %q in rule body", p.peek())
		}
	}
	if err := p.expect("}"); err != nil {
		return ru, err
	}
	return ru, nil
}

// target parses a comma-separated list of matches.
func (p *policyParser) target() (Target, error) {
	var t Target
	for {
		m, err := p.match()
		if err != nil {
			return nil, err
		}
		t = append(t, m)
		if p.peek() == "," {
			p.next()
			continue
		}
		return t, nil
	}
}

// orExpr = andExpr ("or" andExpr)*
func (p *policyParser) orExpr() (Condition, error) {
	first, err := p.andExpr()
	if err != nil {
		return Condition{}, err
	}
	terms := []Condition{first}
	for p.peek() == "or" {
		p.next()
		c, err := p.andExpr()
		if err != nil {
			return Condition{}, err
		}
		terms = append(terms, c)
	}
	if len(terms) == 1 {
		return terms[0], nil
	}
	return Condition{Or: terms}, nil
}

// andExpr = unary ("and" unary)*
func (p *policyParser) andExpr() (Condition, error) {
	first, err := p.unary()
	if err != nil {
		return Condition{}, err
	}
	terms := []Condition{first}
	for p.peek() == "and" {
		p.next()
		c, err := p.unary()
		if err != nil {
			return Condition{}, err
		}
		terms = append(terms, c)
	}
	if len(terms) == 1 {
		return terms[0], nil
	}
	return Condition{And: terms}, nil
}

// unary = "not" unary | "(" orExpr ")" | match
func (p *policyParser) unary() (Condition, error) {
	switch p.peek() {
	case "not":
		p.next()
		inner, err := p.unary()
		if err != nil {
			return Condition{}, err
		}
		return Condition{Not: &inner}, nil
	case "(":
		p.next()
		inner, err := p.orExpr()
		if err != nil {
			return Condition{}, err
		}
		if err := p.expect(")"); err != nil {
			return Condition{}, err
		}
		return inner, nil
	default:
		m, err := p.match()
		if err != nil {
			return Condition{}, err
		}
		return Condition{Match: &m}, nil
	}
}

// match = category "." attr op value  (tokenized as "category.attr")
func (p *policyParser) match() (Match, error) {
	var m Match
	qual := p.next()
	cat, attr, ok := strings.Cut(qual, ".")
	if !ok {
		return m, fmt.Errorf("xacml: expected category.attribute, found %q", qual)
	}
	switch Category(cat) {
	case Subject, Resource, Action, Environment:
		m.Category = Category(cat)
	default:
		return m, fmt.Errorf("xacml: unknown category %q", cat)
	}
	m.Attr = attr
	op, err := matchOpOf(p.next())
	if err != nil {
		return m, err
	}
	m.Op = op
	val := p.next()
	if val == "" {
		return m, fmt.Errorf("xacml: missing value in match for %s", qual)
	}
	if strings.HasPrefix(val, "\"") {
		m.Value = S(val[1:])
	} else if n, err := strconv.Atoi(val); err == nil {
		m.Value = I(n)
	} else {
		m.Value = S(val)
	}
	return m, nil
}

func matchOpOf(s string) (MatchOp, error) {
	switch s {
	case "=":
		return OpEq, nil
	case "!=":
		return OpNeq, nil
	case "<":
		return OpLt, nil
	case "<=":
		return OpLeq, nil
	case ">":
		return OpGt, nil
	case ">=":
		return OpGeq, nil
	default:
		return 0, fmt.Errorf("xacml: unknown operator %q", s)
	}
}
