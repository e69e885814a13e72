package core

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/rdfterm"
)

// RDF containers (§2): a container is a generated blank node typed
// rdf:Bag / rdf:Seq / rdf:Alt, with each member attached via the
// rdf:_n membership properties. Membership links get LINK_TYPE RDF_MEMBER
// in rdf_link$ (§4).

// ContainerKind selects the container type.
type ContainerKind string

// The three RDF container types.
const (
	BagContainer ContainerKind = rdfterm.RDFBag
	SeqContainer ContainerKind = rdfterm.RDFSeq
	AltContainer ContainerKind = rdfterm.RDFAlt
)

// CreateContainer builds a container of the given kind holding members
// (object terms), returning the container's blank node. Members are
// numbered rdf:_1, rdf:_2, … in order. The container is one transaction:
// a crash keeps all of it or none.
func (s *Store) CreateContainer(model string, kind ContainerKind, members ...rdfterm.Term) (rdfterm.Term, error) {
	switch kind {
	case BagContainer, SeqContainer, AltContainer:
	default:
		return rdfterm.Term{}, fmt.Errorf("core: unknown container kind %q", kind)
	}
	var node rdfterm.Term
	err := s.write(func() error {
		mid, err := s.getModelIDLocked(model)
		if err != nil {
			return err
		}
		if node, err = s.newBlankNodeLocked(mid); err != nil {
			return err
		}
		if _, _, err := s.insertLocked(mid, node, rdfterm.NewURI(rdfterm.RDFType), rdfterm.NewURI(string(kind)), ContextDirect); err != nil {
			return err
		}
		for i, m := range members {
			if _, _, err := s.insertLocked(mid, node, rdfterm.NewURI(rdfterm.MembershipProperty(i+1)), m, ContextDirect); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return rdfterm.Term{}, err
	}
	return node, nil
}

// AppendToContainer adds a member with the next free rdf:_n index. The
// members are counted under the same write lock that inserts the new one,
// so concurrent appends take distinct indices.
func (s *Store) AppendToContainer(model string, container rdfterm.Term, member rdfterm.Term) (int, error) {
	var n int
	err := s.write(func() error {
		mid, err := s.getModelIDLocked(model)
		if err != nil {
			return err
		}
		members, err := s.containerMembersLocked(mid, container)
		if err != nil {
			return err
		}
		n = len(members) + 1
		_, _, err = s.insertLocked(mid, container, rdfterm.NewURI(rdfterm.MembershipProperty(n)), member, ContextDirect)
		return err
	})
	if err != nil {
		return 0, err
	}
	return n, nil
}

// ContainerMembers returns the members of a container in rdf:_n order.
func (s *Store) ContainerMembers(model string, container rdfterm.Term) ([]rdfterm.Term, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	mid, err := s.getModelIDLocked(model)
	if err != nil {
		return nil, err
	}
	return s.containerMembersLocked(mid, container)
}

// containerMembersLocked is ContainerMembers with the model resolved and
// s.mu held (either mode).
func (s *Store) containerMembersLocked(mid int64, container rdfterm.Term) ([]rdfterm.Term, error) {
	links, err := s.findModelLocked(context.Background(), mid, Pattern{Subject: &container})
	if err != nil {
		return nil, err
	}
	type numbered struct {
		n    int
		term rdfterm.Term
	}
	var members []numbered
	for _, l := range links {
		prop, err := s.getValueLocked(l.PID)
		if err != nil {
			return nil, err
		}
		if n, ok := rdfterm.IsMembershipProperty(prop.Value); ok {
			obj, err := s.getValueLocked(l.OID)
			if err != nil {
				return nil, err
			}
			members = append(members, numbered{n: n, term: obj})
		}
	}
	sort.Slice(members, func(i, j int) bool { return members[i].n < members[j].n })
	out := make([]rdfterm.Term, len(members))
	for i, m := range members {
		out[i] = m.term
	}
	return out, nil
}

// ContainerKindOf returns the container type of a node, or "" when the
// node is not typed as a container in the model.
func (s *Store) ContainerKindOf(model string, node rdfterm.Term) (ContainerKind, error) {
	typ := rdfterm.NewURI(rdfterm.RDFType)
	ts, err := s.Find(model, Pattern{Subject: &node, Predicate: &typ})
	if err != nil {
		return "", err
	}
	for _, t := range ts {
		obj, err := t.GetObject()
		if err != nil {
			return "", err
		}
		switch obj {
		case rdfterm.RDFBag, rdfterm.RDFSeq, rdfterm.RDFAlt:
			return ContainerKind(obj), nil
		}
	}
	return "", nil
}
