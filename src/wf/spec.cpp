#include "wf/spec.hpp"

#include <algorithm>
#include <set>
#include <utility>

#include "util/error.hpp"
#include "util/strings.hpp"
#include "wf/template.hpp"
#include "xml/xml.hpp"

namespace scidock::wf {

namespace {

/// One walk over the DOM lifts the definition, with per-element source
/// lines, and records the structural findings (WF001, WF002, WF004); one
/// pass per rule over the lifted definition then adds the rest. Both
/// load_spec and check_spec read their findings from here.
class SpecChecker {
 public:
  explicit SpecChecker(std::string_view xml_text) { run(xml_text); }

  WorkflowDef wf;
  std::vector<SpecFinding> findings;

 private:
  void error(std::string rule, int line, std::string message) {
    findings.push_back(SpecFinding{std::move(rule), line, std::move(message)});
  }

  void run(std::string_view xml_text) {
    xml::Document doc;
    try {
      doc = xml::parse(xml_text);
    } catch (const ParseError& e) {
      error("WF001", 0, e.what());
      return;
    }
    if (!doc.root) {
      error("WF001", 0, "empty XML document");
      return;
    }
    const xml::Element& root = *doc.root;
    if (root.name() != "SciCumulus") {
      error("WF001", root.source_line(),
            "root element must be <SciCumulus>, got <" + root.name() + ">");
      return;
    }
    lift_database(root);
    const xml::Element* wf_el = root.child("SciCumulusWorkflow");
    if (wf_el == nullptr) {
      error("WF001", root.source_line(), "missing <SciCumulusWorkflow>");
      return;
    }
    if (auto v = wf_el->attribute("tag")) {
      wf.tag = *v;
    } else {
      error("WF001", wf_el->source_line(),
            "<SciCumulusWorkflow> has no tag attribute");
    }
    if (auto v = wf_el->attribute("description")) wf.description = *v;
    if (auto v = wf_el->attribute("exectag")) wf.exec_tag = *v;
    if (auto v = wf_el->attribute("expdir")) wf.expdir = *v;
    lift_activities(*wf_el);
    if (wf.activities.empty()) {
      error("WF001", wf_el->source_line(), "workflow has no activities");
      return;
    }
    check_arity();
    check_producers();
    check_schemas();
    check_templates();
    check_cycles();
  }

  void lift_database(const xml::Element& root) {
    const xml::Element* db = root.child("database");
    if (db == nullptr) return;
    if (auto v = db->attribute("name")) wf.database.name = *v;
    if (auto v = db->attribute("server")) wf.database.server = *v;
    const auto port = db->attribute("port");
    if (!port) return;
    long long value = 0;
    try {
      value = parse_int(*port, "database port");
    } catch (const Error&) {
      error("WF001", db->source_line(),
            "database port '" + *port + "' is not an integer");
      return;
    }
    if (value < 1 || value > 65535) {
      error("WF001", db->source_line(),
            "database port " + std::to_string(value) + " outside 1..65535");
      return;
    }
    wf.database.port = static_cast<int>(value);
  }

  void lift_activities(const xml::Element& wf_el) {
    std::set<std::string> seen_tags;
    for (const xml::Element* act_el :
         wf_el.children_named("SciCumulusActivity")) {
      ActivityDef act;
      act.line = act_el->source_line();
      const auto tag = act_el->attribute("tag");
      if (tag) {
        act.tag = *tag;
      } else {
        error("WF001", act.line, "<SciCumulusActivity> has no tag attribute");
        act.tag = "<unnamed>";
      }
      if (auto v = act_el->attribute("templatedir")) act.template_dir = *v;
      if (auto v = act_el->attribute("activation")) act.activation_command = *v;

      bool op_known = true;
      if (auto type = act_el->attribute("type"); type && !type->empty()) {
        try {
          act.op = algebraic_op_from(*type);
        } catch (const NotFoundError&) {
          op_known = false;
          error("WF002", act.line,
                "activity '" + act.tag + "': unknown operator '" + *type +
                    "' (expected MAP, SPLIT_MAP, FILTER, REDUCE or SR_QUERY)");
        }
      }
      if (tag && !seen_tags.insert(act.tag).second) {
        error("WF004", act.line, "duplicate activity tag '" + act.tag + "'");
      }

      std::set<std::pair<std::string, bool>> seen_relations;  // name, input
      for (const xml::Element* rel_el : act_el->children_named("Relation")) {
        RelationDef rel;
        rel.line = rel_el->source_line();
        if (auto name = rel_el->attribute("name")) {
          rel.name = *name;
        } else {
          error("WF001", rel.line,
                "activity '" + act.tag + "': <Relation> has no name");
          continue;
        }
        if (auto v = rel_el->attribute("filename")) rel.filename = *v;
        if (auto v = rel_el->attribute("fields")) {
          for (const std::string& f : split(*v, ',')) {
            const std::string_view t = trim(f);
            if (!t.empty()) rel.fields.emplace_back(t);
          }
        }
        const auto reltype = rel_el->attribute("reltype");
        if (!reltype) {
          error("WF001", rel.line,
                "activity '" + act.tag + "': relation '" + rel.name +
                    "' has no reltype");
          continue;
        }
        if (iequals(*reltype, "Input")) {
          rel.is_input = true;
        } else if (iequals(*reltype, "Output")) {
          rel.is_input = false;
        } else {
          error("WF001", rel.line,
                "activity '" + act.tag + "': unknown reltype '" + *reltype +
                    "' (expected Input or Output)");
          continue;
        }
        if (!seen_relations.insert({rel.name, rel.is_input}).second) {
          error("WF004", rel.line,
                "activity '" + act.tag + "': relation '" + rel.name +
                    "' declared twice");
        }
        act.relations.push_back(std::move(rel));
      }
      op_known_.push_back(op_known);
      wf.activities.push_back(std::move(act));
    }
  }

  /// WF003: every operator consumes exactly one relation; SPLIT_MAP may
  /// fan out to several, all others produce exactly one.
  void check_arity() {
    for (std::size_t i = 0; i < wf.activities.size(); ++i) {
      if (!op_known_[i]) continue;  // already WF002
      const ActivityDef& act = wf.activities[i];
      std::size_t inputs = 0, outputs = 0;
      for (const RelationDef& rel : act.relations) {
        (rel.is_input ? inputs : outputs)++;
      }
      const std::string op(to_string(act.op));
      if (inputs != 1) {
        error("WF003", act.line,
              "activity '" + act.tag + "' (" + op + "): expected exactly 1 "
                  "input relation, got " + std::to_string(inputs));
      }
      if (act.op == AlgebraicOp::SplitMap) {
        if (outputs < 1) {
          error("WF003", act.line,
                "activity '" + act.tag + "' (SPLIT_MAP): expected at least "
                    "1 output relation, got 0");
        }
      } else if (outputs != 1) {
        error("WF003", act.line,
              "activity '" + act.tag + "' (" + op + "): expected exactly 1 "
                  "output relation, got " + std::to_string(outputs));
      }
    }
  }

  /// WF004 (a second producer) + WF007 (consumed but never produced nor
  /// staged from a file).
  void check_producers() {
    for (std::size_t i = 0; i < wf.activities.size(); ++i) {
      const ActivityDef& act = wf.activities[i];
      for (const RelationDef& rel : act.relations) {
        if (rel.is_input) continue;
        const int first = wf.producer_of(rel.name);
        if (first != static_cast<int>(i)) {
          error("WF004", rel.line,
                "relation '" + rel.name + "' produced by both '" +
                    wf.activities[static_cast<std::size_t>(first)].tag +
                    "' and '" + act.tag + "'");
        }
      }
    }
    for (const ActivityDef& act : wf.activities) {
      for (const RelationDef& rel : act.relations) {
        if (rel.is_input && rel.filename.empty() &&
            wf.producer_of(rel.name) < 0) {
          error("WF007", rel.line,
                "activity '" + act.tag + "': input relation '" + rel.name +
                    "' has no producing activity and no filename to stage "
                    "it from");
        }
      }
    }
  }

  /// WF005: a consumer's declared input schema must be covered by its
  /// producer's declared output schema. Only checked when both sides
  /// declare `fields` (the attribute is optional).
  void check_schemas() {
    for (const ActivityDef& act : wf.activities) {
      for (const RelationDef& rel : act.relations) {
        if (!rel.is_input || rel.fields.empty()) continue;
        const int p = wf.producer_of(rel.name);
        if (p < 0) continue;
        const ActivityDef& producer = wf.activities[static_cast<std::size_t>(p)];
        const RelationDef* out = nullptr;
        for (const RelationDef& prel : producer.relations) {
          if (!prel.is_input && prel.name == rel.name) out = &prel;
        }
        if (out->fields.empty()) continue;
        for (const std::string& field : rel.fields) {
          if (std::find(out->fields.begin(), out->fields.end(), field) ==
              out->fields.end()) {
            error("WF005", rel.line,
                  "activity '" + act.tag + "': input relation '" + rel.name +
                      "' expects field '" + field + "' but producer '" +
                      producer.tag + "' declares only (" +
                      join(out->fields, ", ") + ")");
          }
        }
      }
    }
  }

  /// WF008 (malformed %TAG% syntax) + WF009 (tag resolves to no declared
  /// input field; only checked when the input declares a schema) + WF010
  /// (input schema undeclared, but the tag names no field declared by
  /// *any* relation of the workflow — in a workflow that declares fields
  /// elsewhere, such a tag can never be bound). WF010 stays silent in
  /// fully schema-less specifications, where nothing can be validated.
  void check_templates() {
    std::set<std::string> declared_anywhere;
    for (const ActivityDef& act : wf.activities) {
      for (const RelationDef& rel : act.relations) {
        declared_anywhere.insert(rel.fields.begin(), rel.fields.end());
      }
    }
    for (const ActivityDef& act : wf.activities) {
      if (act.activation_command.empty()) continue;
      std::vector<std::string> tags;
      try {
        tags = template_tags(act.activation_command);
      } catch (const ParseError& e) {
        error("WF008", act.line, "activity '" + act.tag + "': " + e.what());
        continue;
      }
      const RelationDef* input = act.input_relation();
      if (input == nullptr || input->fields.empty()) {
        if (declared_anywhere.empty()) continue;
        for (const std::string& tag : tags) {
          if (declared_anywhere.count(tag) == 0) {
            error("WF010", act.line,
                  "activity '" + act.tag + "': template tag %" + tag +
                      "% is referenced but no relation in the workflow "
                      "declares a field of that name");
          }
        }
        continue;
      }
      for (const std::string& tag : tags) {
        if (std::find(input->fields.begin(), input->fields.end(), tag) ==
            input->fields.end()) {
          error("WF009", act.line,
                "activity '" + act.tag + "': template tag %" + tag +
                    "% names no field of input relation '" + input->name +
                    "' (" + join(input->fields, ", ") + ")");
        }
      }
    }
  }

  /// WF006: the relation wiring must form a DAG. An activity that
  /// WorkflowDef::runnable_order() leaves out sits on (or behind) a cycle.
  void check_cycles() {
    std::vector<bool> runs(wf.activities.size(), false);
    for (int i : wf.runnable_order()) runs[static_cast<std::size_t>(i)] = true;
    for (std::size_t i = 0; i < wf.activities.size(); ++i) {
      if (runs[i]) continue;
      error("WF006", wf.activities[i].line,
            "activity '" + wf.activities[i].tag + "' is part of (or "
                "downstream of) a dataflow cycle");
    }
  }

  std::vector<bool> op_known_;  ///< per activity; false = WF002 reported
};

}  // namespace

std::vector<SpecFinding> check_spec(std::string_view xml_text) {
  return SpecChecker(xml_text).findings;
}

WorkflowDef load_spec(std::string_view xml_text) {
  SpecChecker checked(xml_text);
  if (!checked.findings.empty()) {
    const SpecFinding& first = checked.findings.front();
    throw ParseError("workflow spec", "[" + first.rule + "] line " +
                                          std::to_string(first.line) + ": " +
                                          first.message);
  }
  return std::move(checked.wf);
}

std::string save_spec(const WorkflowDef& wf) {
  xml::Document doc;
  doc.root = std::make_unique<xml::Element>("SciCumulus");
  xml::Element& db = doc.root->add_child("database");
  db.set_attribute("name", wf.database.name);
  db.set_attribute("server", wf.database.server);
  db.set_attribute("port", std::to_string(wf.database.port));

  xml::Element& wf_el = doc.root->add_child("SciCumulusWorkflow");
  wf_el.set_attribute("tag", wf.tag);
  wf_el.set_attribute("description", wf.description);
  wf_el.set_attribute("exectag", wf.exec_tag);
  wf_el.set_attribute("expdir", wf.expdir);

  for (const ActivityDef& act : wf.activities) {
    xml::Element& act_el = wf_el.add_child("SciCumulusActivity");
    act_el.set_attribute("tag", act.tag);
    act_el.set_attribute("type", std::string(to_string(act.op)));
    act_el.set_attribute("templatedir", act.template_dir);
    act_el.set_attribute("activation", act.activation_command);
    for (const RelationDef& rel : act.relations) {
      xml::Element& rel_el = act_el.add_child("Relation");
      rel_el.set_attribute("reltype", rel.is_input ? "Input" : "Output");
      rel_el.set_attribute("name", rel.name);
      rel_el.set_attribute("filename", rel.filename);
      if (!rel.fields.empty()) {
        rel_el.set_attribute("fields", join(rel.fields, ","));
      }
    }
  }
  return doc.to_string();
}

}  // namespace scidock::wf
