package dataset

import (
	"fmt"
	"math/rand"

	"repro/internal/cq"
	"repro/internal/db"
	"repro/internal/schema"
)

// DBGroupSchema returns the schema of the §7.1 DBGroup database: group
// members, their research activities, publications, academic events,
// grants and sponsored travels. "Recent" marks the years within the last
// 30 months of the report, making the paper's time-window queries
// expressible as CQ≠.
func DBGroupSchema() *schema.Schema {
	return schema.New(
		schema.Relation{Name: "Members", Attrs: []string{"name", "role", "startyear"}},
		schema.Relation{Name: "Publications", Attrs: []string{"title", "year", "topic", "venue"}},
		schema.Relation{Name: "AuthorOf", Attrs: []string{"member", "title"}},
		schema.Relation{Name: "Grants", Attrs: []string{"name", "agency"}},
		schema.Relation{Name: "GrantTopics", Attrs: []string{"grant", "topic"}},
		schema.Relation{Name: "FundedBy", Attrs: []string{"member", "grant"}},
		schema.Relation{Name: "Events", Attrs: []string{"name", "year", "type", "topic"}},
		schema.Relation{Name: "Talks", Attrs: []string{"member", "event", "kind"}},
		schema.Relation{Name: "Travels", Attrs: []string{"member", "event", "sponsor"}},
		schema.Relation{Name: "Recent", Attrs: []string{"year"}},
	)
}

// DBGroup domain constants.
var (
	dbgroupRoles  = []string{"Student", "Postdoc", "Faculty", "Alumni"}
	dbgroupTopics = []string{"Crowdsourcing", "Provenance", "DataCleaning", "Streams", "Graphs", "Privacy"}
	dbgroupVenues = []string{"SIGMOD", "VLDB", "PODS", "ICDE", "EDBT", "CIKM"}
	dbgroupGrants = [][2]string{
		{"ERC", "EU"}, {"MoDaS", "EU"}, {"ISF-0423", "ISF"},
		{"BSF-112", "BSF"}, {"MAGNET", "IIA"}, {"NSF-1450560", "NSF"},
	}
	dbgroupEventTypes = []string{"Conference", "Workshop"}
	dbgroupTalkKinds  = []string{"Keynote", "Tutorial", "Regular"}
	dbgroupYears      = []string{"2006", "2007", "2008", "2009", "2010", "2011", "2012", "2013", "2014", "2015"}
	dbgroupRecent     = []string{"2013", "2014", "2015"} // the last 30 months of the report period
)

// Generator sizes of the DBGroup ground truth.
const (
	dbgroupMembers      = 50  // group members over the 10-year history
	dbgroupPublications = 380 // papers
	dbgroupEvents       = 90  // academic events
)

// DBGroup generates the ground truth of the §7.1 DBGroup database:
// roughly 2000 tuples of members, publications, grants, events, talks and
// travels, "created about 10 years ago and continuously maintained". Every
// call returns the same database.
func DBGroup() *db.Database {
	rng := rand.New(rand.NewSource(1))
	d := db.New(DBGroupSchema())

	for _, y := range dbgroupRecent {
		mustInsert(d, "Recent", []string{y})
	}
	for _, g := range dbgroupGrants {
		mustInsert(d, "Grants", []string{g[0], g[1]})
		// Each grant covers 2-3 topics.
		n := 2 + rng.Intn(2)
		perm := rng.Perm(len(dbgroupTopics))
		for _, ti := range perm[:n] {
			mustInsert(d, "GrantTopics", []string{g[0], dbgroupTopics[ti]})
		}
	}

	members := make([]string, 0, dbgroupMembers)
	for i := 0; i < dbgroupMembers; i++ {
		name := fmt.Sprintf("Member%02d", i+1)
		// Groups are student-heavy: ~half the members are students.
		role := "Student"
		if rng.Intn(2) == 0 {
			role = dbgroupRoles[rng.Intn(len(dbgroupRoles))]
		}
		start := dbgroupYears[rng.Intn(len(dbgroupYears))]
		mustInsert(d, "Members", []string{name, role, start})
		members = append(members, name)
		// Funding: most members are funded by 1-2 grants.
		n := 1 + rng.Intn(2)
		perm := rng.Perm(len(dbgroupGrants))
		for _, gi := range perm[:n] {
			mustInsert(d, "FundedBy", []string{name, dbgroupGrants[gi][0]})
		}
	}

	events := make([]string, 0, dbgroupEvents)
	for i := 0; i < dbgroupEvents; i++ {
		name := fmt.Sprintf("Event%02d", i+1)
		// Recent years are over-represented (the report covers them).
		year := dbgroupYears[rng.Intn(len(dbgroupYears))]
		if rng.Intn(2) == 0 {
			year = dbgroupRecent[rng.Intn(len(dbgroupRecent))]
		}
		typ := dbgroupEventTypes[rng.Intn(len(dbgroupEventTypes))]
		topic := dbgroupTopics[rng.Intn(len(dbgroupTopics))]
		mustInsert(d, "Events", []string{name, year, typ, topic})
		events = append(events, name)
	}

	for i := 0; i < dbgroupPublications; i++ {
		title := fmt.Sprintf("Paper%03d", i+1)
		year := dbgroupYears[rng.Intn(len(dbgroupYears))]
		topic := dbgroupTopics[rng.Intn(len(dbgroupTopics))]
		venue := dbgroupVenues[rng.Intn(len(dbgroupVenues))]
		mustInsert(d, "Publications", []string{title, year, topic, venue})
		// 1-3 authors from the group.
		n := 1 + rng.Intn(3)
		perm := rng.Perm(len(members))
		for _, mi := range perm[:n] {
			mustInsert(d, "AuthorOf", []string{members[mi], title})
		}
	}

	// Talks: keynotes/tutorials/regular talks at events.
	for i := 0; i < dbgroupEvents*3; i++ {
		m := members[rng.Intn(len(members))]
		e := events[rng.Intn(len(events))]
		kind := dbgroupTalkKinds[rng.Intn(len(dbgroupTalkKinds))]
		mustInsert(d, "Talks", []string{m, e, kind})
	}

	// Travels: sponsored conference attendance; ERC (the report's grant)
	// sponsors a sizeable share.
	for i := 0; i < dbgroupEvents*3; i++ {
		m := members[rng.Intn(len(members))]
		e := events[rng.Intn(len(events))]
		sponsor := dbgroupGrants[rng.Intn(len(dbgroupGrants))][0]
		if rng.Intn(3) == 0 {
			sponsor = "ERC"
		}
		mustInsert(d, "Travels", []string{m, e, sponsor})
	}
	return d
}

// DBGroup report queries of §7.1 (the "last grant report").

// DBGroupQ1 finds all keynotes and tutorials on topics related to ERC —
// a union of two CQs over the talk kind.
func DBGroupQ1() *cq.Union {
	return cq.MustParseUnion(
		"q1(m, e) :- Talks(m, e, Keynote), Events(e, y, tp, topic), GrantTopics(ERC, topic) ; " +
			"q1(m, e) :- Talks(m, e, Tutorial), Events(e, y, tp, topic), GrantTopics(ERC, topic)")
}

// DBGroupQ2 finds all current group members financed by ERC.
func DBGroupQ2() *cq.Query {
	return cq.MustParse("q2(m) :- Members(m, r, y), FundedBy(m, ERC), r != Alumni.")
}

// DBGroupQ3 finds all students who participated in conferences in the past
// 30 months, where the travel was sponsored by ERC.
func DBGroupQ3() *cq.Query {
	return cq.MustParse("q3(m, e) :- Members(m, Student, y), Travels(m, e, ERC), Events(e, y2, Conference, tp), Recent(y2).")
}

// DBGroupQ4 finds all publications with the topic "crowdsourcing" published
// in the last 30 months.
func DBGroupQ4() *cq.Query {
	return cq.MustParse("q4(p) :- Publications(p, y, Crowdsourcing, v), Recent(y).")
}
