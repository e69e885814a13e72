// Package inference implements the paper's SDO_RDF_INFERENCE package
// (§6.1): user-defined rulebases, the Oracle-supplied RDFS entailment
// rulebase, and rules indexes that pre-compute inferred triples so that
// SDO_RDF_MATCH can query them.
//
// A rules index materializes the fixpoint of the rules over the selected
// models into a hidden model (rdfsix_<name> in the store); match queries
// that name the rulebases read base and inferred triples together.
package inference

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/match"
	"repro/internal/rdfterm"
)

// Rule is one inference rule: IF the antecedent patterns all match (and
// the filter passes) THEN the consequent pattern holds. This mirrors the
// paper's rule rows (Figure 8):
//
//	('intel_rule', '(?x gov:terrorAction "bombing")', null,
//	 '(gov:files gov:terrorSuspect ?x)', aliases)
type Rule struct {
	Name       string
	Antecedent string // one or more '(s p o)' patterns
	Filter     string // optional filter expression over antecedent vars
	Consequent string // exactly one '(s p o)' pattern
	Aliases    []rdfterm.Alias
}

// Rulebase is a named collection of rules (CREATE_RULEBASE + inserts into
// the rdfr_<name> table).
type Rulebase struct {
	name  string
	rules []Rule
}

// Name returns the rulebase name.
func (rb *Rulebase) Name() string { return rb.name }

// Rules returns a copy of the rules.
func (rb *Rulebase) Rules() []Rule { return append([]Rule(nil), rb.rules...) }

// RDFSRulebaseName is the reserved name of the built-in RDFS rulebase
// ("The RDFS rulebase is Oracle-supplied", §6.1).
const RDFSRulebaseName = "RDFS"

// Sentinel errors.
var (
	ErrNoSuchRulebase = fmt.Errorf("inference: no such rulebase")
	ErrNoRulesIndex   = fmt.Errorf("inference: no rules index for this models+rulebases combination")
)

// Catalog owns rulebases and rules indexes for one store — the engine's
// SDO_RDF_INFERENCE package state.
type Catalog struct {
	mu        sync.Mutex
	store     *core.Store
	rulebases map[string]*Rulebase
	indexes   map[string]*RulesIndex // by index name
	byScope   map[string]string      // scope key -> index name
}

// NewCatalog creates an inference catalog over a store, with the built-in
// RDFS rulebase preregistered.
func NewCatalog(store *core.Store) *Catalog {
	c := &Catalog{
		store:     store,
		rulebases: make(map[string]*Rulebase),
		indexes:   make(map[string]*RulesIndex),
		byScope:   make(map[string]string),
	}
	c.rulebases[RDFSRulebaseName] = &Rulebase{name: RDFSRulebaseName, rules: rdfsRules()}
	return c
}

// CreateRulebase is SDO_RDF_INFERENCE.CREATE_RULEBASE (Figure 8).
func (c *Catalog) CreateRulebase(name string) (*Rulebase, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if name == "" {
		return nil, fmt.Errorf("inference: empty rulebase name")
	}
	if _, dup := c.rulebases[name]; dup {
		return nil, fmt.Errorf("inference: rulebase %q already exists", name)
	}
	rb := &Rulebase{name: name}
	c.rulebases[name] = rb
	return rb, nil
}

// Rulebase returns a rulebase by name.
func (c *Catalog) Rulebase(name string) (*Rulebase, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rb, ok := c.rulebases[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchRulebase, name)
	}
	return rb, nil
}

// AddRule appends a rule to a rulebase (the paper's INSERT INTO
// mdsys.rdfr_<rulebase>). The rule's patterns are validated eagerly.
func (c *Catalog) AddRule(rulebase string, r Rule) error {
	rb, err := c.Rulebase(rulebase)
	if err != nil {
		return err
	}
	if r.Name == "" {
		return fmt.Errorf("inference: rule needs a name")
	}
	aliases := rdfterm.Default().With(r.Aliases...)
	if _, err := match.ParseQuery(r.Antecedent, aliases); err != nil {
		return fmt.Errorf("inference: rule %s antecedent: %w", r.Name, err)
	}
	cons, err := match.ParseQuery(r.Consequent, aliases)
	if err != nil {
		return fmt.Errorf("inference: rule %s consequent: %w", r.Name, err)
	}
	if len(cons) != 1 {
		return fmt.Errorf("inference: rule %s must have exactly one consequent pattern", r.Name)
	}
	if _, err := match.ParseFilter(r.Filter); err != nil {
		return fmt.Errorf("inference: rule %s filter: %w", r.Name, err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	rb.rules = append(rb.rules, r)
	return nil
}

// scopeKey canonicalizes a models+rulebases combination.
func scopeKey(models, rulebases []string) string {
	m := append([]string{}, models...)
	r := append([]string{}, rulebases...)
	sort.Strings(m)
	sort.Strings(r)
	return strings.Join(m, ",") + "|" + strings.Join(r, ",")
}

// ResolveIndex implements match.RulebaseResolver: it returns the hidden
// model of the rules index previously created for exactly this
// models+rulebases combination.
func (c *Catalog) ResolveIndex(models, rulebases []string) (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	name, ok := c.byScope[scopeKey(models, rulebases)]
	if !ok {
		return "", fmt.Errorf("%w: models %v, rulebases %v", ErrNoRulesIndex, models, rulebases)
	}
	return c.indexes[name].indexModel, nil
}

// RulesIndex is a materialized inference result — CREATE_RULES_INDEX
// (Figure 8). Inferred triples live in a hidden store model.
type RulesIndex struct {
	name       string
	models     []string
	rulebases  []string
	indexModel string
	inferred   int
}

// Name returns the index name.
func (ix *RulesIndex) Name() string { return ix.name }

// InferredCount returns the number of materialized inferred triples.
func (ix *RulesIndex) InferredCount() int { return ix.inferred }

// IndexModel returns the hidden model holding the inferred triples.
func (ix *RulesIndex) IndexModel() string { return ix.indexModel }

// CreateRulesIndex is SDO_RDF_INFERENCE.CREATE_RULES_INDEX (Figure 8): it
// computes the fixpoint of the given rulebases over the given models and
// materializes the *new* triples (those not present in any source model)
// into a hidden model. The rule evaluation polls ctx (see
// match.MatchContext), so a long build can be cancelled.
func (c *Catalog) CreateRulesIndex(ctx context.Context, name string, models, rulebases []string) (*RulesIndex, error) {
	if name == "" {
		return nil, fmt.Errorf("inference: empty index name")
	}
	if len(models) == 0 {
		return nil, fmt.Errorf("inference: rules index needs at least one model")
	}
	c.mu.Lock()
	if _, dup := c.indexes[name]; dup {
		c.mu.Unlock()
		return nil, fmt.Errorf("inference: rules index %q already exists", name)
	}
	var rbs []*Rulebase
	for _, rb := range rulebases {
		b, ok := c.rulebases[rb]
		if !ok {
			c.mu.Unlock()
			return nil, fmt.Errorf("%w: %q", ErrNoSuchRulebase, rb)
		}
		rbs = append(rbs, b)
	}
	c.mu.Unlock()

	indexModel := "rdfsix_" + strings.ToLower(name)
	if _, err := c.store.CreateRDFModel(indexModel, "", ""); err != nil {
		return nil, err
	}
	ix := &RulesIndex{name: name, models: models, rulebases: rulebases, indexModel: indexModel}
	if err := c.populate(ctx, ix, rbs); err != nil {
		_ = c.store.DropRDFModel(indexModel)
		return nil, err
	}
	c.mu.Lock()
	c.indexes[name] = ix
	c.byScope[scopeKey(models, rulebases)] = name
	c.mu.Unlock()
	return ix, nil
}

// DropRulesIndex removes a rules index and its materialized triples.
func (c *Catalog) DropRulesIndex(name string) error {
	c.mu.Lock()
	ix, ok := c.indexes[name]
	if !ok {
		c.mu.Unlock()
		return fmt.Errorf("%w: index %q", ErrNoRulesIndex, name)
	}
	delete(c.indexes, name)
	delete(c.byScope, scopeKey(ix.models, ix.rulebases))
	c.mu.Unlock()
	return c.store.DropRDFModel(ix.indexModel)
}

// Rebuild recomputes a rules index after base-model updates (Oracle
// requires the same), polling ctx as CreateRulesIndex does.
func (c *Catalog) Rebuild(ctx context.Context, name string) error {
	c.mu.Lock()
	ix, ok := c.indexes[name]
	if !ok {
		c.mu.Unlock()
		return fmt.Errorf("%w: index %q", ErrNoRulesIndex, name)
	}
	var rbs []*Rulebase
	for _, rb := range ix.rulebases {
		rbs = append(rbs, c.rulebases[rb])
	}
	c.mu.Unlock()
	if err := c.store.DropRDFModel(ix.indexModel); err != nil {
		return err
	}
	if _, err := c.store.CreateRDFModel(ix.indexModel, "", ""); err != nil {
		return err
	}
	ix.inferred = 0
	return c.populate(ctx, ix, rbs)
}

// populate runs the rules to fixpoint. Each round evaluates every rule's
// antecedent over base models + already-inferred triples, inserting new
// consequents into the index model; it stops when a round adds nothing.
func (c *Catalog) populate(ctx context.Context, ix *RulesIndex, rbs []*Rulebase) error {
	scope := append(append([]string{}, ix.models...), ix.indexModel)
	const maxRounds = 64
	// Per-rule memo of consequent instances already emitted or found to
	// exist: later rounds re-derive everything derived earlier, so the
	// memo saves re-checking each instance against the store every round.
	memo := map[string]map[string]bool{}
	for _, rb := range rbs {
		for _, rule := range rb.rules {
			memo[rb.name+"/"+rule.Name] = map[string]bool{}
		}
	}
	for round := 0; round < maxRounds; round++ {
		added := 0
		for _, rb := range rbs {
			for _, rule := range rb.rules {
				n, err := c.applyRule(ctx, ix, scope, rule, memo[rb.name+"/"+rule.Name])
				if err != nil {
					return fmt.Errorf("inference: rule %s/%s: %w", rb.name, rule.Name, err)
				}
				added += n
			}
		}
		if added == 0 {
			return nil
		}
		ix.inferred += added
	}
	return fmt.Errorf("inference: rules index %s did not converge in %d rounds", ix.name, maxRounds)
}

// applyRule evaluates one rule over the scope and inserts new consequent
// instances, returning how many new triples were materialized.
func (c *Catalog) applyRule(ctx context.Context, ix *RulesIndex, scope []string, rule Rule, emitted map[string]bool) (int, error) {
	aliases := rdfterm.Default().With(rule.Aliases...)
	rs, err := match.MatchContext(ctx, c.store, rule.Antecedent, match.Options{
		Models:  scope,
		Aliases: aliases,
		Filter:  rule.Filter,
	})
	if err != nil {
		return 0, err
	}
	consPats, err := match.ParseQuery(rule.Consequent, aliases)
	if err != nil {
		return 0, err
	}
	cons := consPats[0]
	added := 0
	// Rules like rdf1 derive the same consequent from thousands of
	// bindings (and every later round re-derives the earlier rounds'
	// output); the memo dedupes instances before the comparatively
	// expensive store-existence checks.
	for i := 0; i < rs.Len(); i++ {
		binding := map[string]rdfterm.Term{}
		for _, v := range rs.Vars {
			t, _ := rs.Get(i, v)
			binding[v] = t
		}
		sub, ok := instantiate(cons.S, binding)
		if !ok {
			continue
		}
		prop, ok := instantiate(cons.P, binding)
		if !ok {
			continue
		}
		obj, ok := instantiate(cons.O, binding)
		if !ok {
			continue
		}
		// Structural validity: literal subjects/predicates cannot be
		// asserted (rdf1-style rules can bind odd combinations).
		if sub.Kind == rdfterm.Literal || prop.Kind != rdfterm.URI {
			continue
		}
		key := sub.String() + "\x00" + prop.String() + "\x00" + obj.String()
		if emitted[key] {
			continue
		}
		emitted[key] = true
		// Skip triples already present in any scope model (base or index):
		// the rules index stores only genuinely new inferences.
		exists := false
		for _, m := range scope {
			if _, ok, err := c.store.IsTripleTerms(m, sub, prop, obj); err != nil {
				return added, err
			} else if ok {
				exists = true
				break
			}
		}
		if exists {
			continue
		}
		if _, err := c.store.InsertTerms(ix.indexModel, sub, prop, obj); err != nil {
			return added, err
		}
		added++
	}
	return added, nil
}

// instantiate substitutes a binding into a consequent position; it fails
// when a variable is unbound.
func instantiate(pt match.PatternTerm, b map[string]rdfterm.Term) (rdfterm.Term, bool) {
	if !pt.IsVar() {
		return pt.Term, true
	}
	t, ok := b[pt.Var]
	return t, ok
}

var _ match.RulebaseResolver = (*Catalog)(nil)
