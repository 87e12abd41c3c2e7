#include "netlist/bench_io.hpp"

#include <cctype>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <unordered_map>
#include <vector>

namespace enb::netlist {
namespace {

struct Definition {
  GateType type = GateType::kInput;
  std::vector<std::string> operands;
  int line = 0;
};

bool is_name_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_' ||
         c == '.' || c == '[' || c == ']' || c == '$' || c == '/';
}

std::string strip(const std::string& text) {
  std::size_t begin = 0;
  std::size_t end = text.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(text[begin]))) ++begin;
  while (end > begin && std::isspace(static_cast<unsigned char>(text[end - 1]))) --end;
  return text.substr(begin, end - begin);
}

[[noreturn]] void fail(int line, const std::string& message) {
  throw BenchParseError("bench parse error at line " + std::to_string(line) +
                        ": " + message);
}

// Parses "FUNC(a, b, c)" into (FUNC, [a,b,c]).
std::pair<std::string, std::vector<std::string>> parse_call(
    const std::string& text, int line) {
  const std::size_t open = text.find('(');
  const std::size_t close = text.rfind(')');
  if (open == std::string::npos || close == std::string::npos || close < open) {
    fail(line, "expected FUNC(args): '" + text + "'");
  }
  const std::string func = strip(text.substr(0, open));
  std::vector<std::string> args;
  std::string current;
  for (std::size_t i = open + 1; i < close; ++i) {
    const char c = text[i];
    if (c == ',') {
      args.push_back(strip(current));
      current.clear();
    } else {
      current += c;
    }
  }
  const std::string last = strip(current);
  if (!last.empty()) args.push_back(last);
  for (const std::string& a : args) {
    if (a.empty()) fail(line, "empty operand in '" + text + "'");
    for (char c : a) {
      if (!is_name_char(c)) fail(line, "bad signal name '" + a + "'");
    }
  }
  return {func, args};
}

}  // namespace

Circuit read_bench(std::istream& in, std::string name) {
  std::vector<std::string> input_order;
  std::vector<std::pair<std::string, int>> output_order;
  std::unordered_map<std::string, Definition> defs;

  std::string raw;
  int line_no = 0;
  while (std::getline(in, raw)) {
    ++line_no;
    std::string line = raw;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    line = strip(line);
    if (line.empty()) continue;

    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) {
      const auto [func, args] = parse_call(line, line_no);
      if (args.size() != 1) fail(line_no, "expected one argument: '" + line + "'");
      const auto type = gate_type_from_string(func);
      if (type == GateType::kInput) {
        if (defs.count(args[0]) != 0) fail(line_no, "duplicate INPUT " + args[0]);
        defs[args[0]] = Definition{GateType::kInput, {}, line_no};
        input_order.push_back(args[0]);
      } else if (func == "OUTPUT" || func == "output" || func == "Output") {
        output_order.emplace_back(args[0], line_no);
      } else {
        fail(line_no, "expected INPUT(...) or OUTPUT(...): '" + line + "'");
      }
      continue;
    }

    const std::string lhs = strip(line.substr(0, eq));
    if (lhs.empty()) fail(line_no, "missing signal name before '='");
    for (char c : lhs) {
      if (!is_name_char(c)) fail(line_no, "bad signal name '" + lhs + "'");
    }
    const auto [func, args] = parse_call(line.substr(eq + 1), line_no);
    const auto type = gate_type_from_string(func);
    if (!type.has_value() || *type == GateType::kInput) {
      fail(line_no, "unsupported gate '" + func +
                        "' (sequential elements are not supported)");
    }
    if (defs.count(lhs) != 0) fail(line_no, "duplicate definition of " + lhs);
    defs[lhs] = Definition{*type, args, line_no};
  }

  // Resolve definitions depth-first so forward references work; a visit
  // state of "in progress" means a combinational cycle. The DFS keeps its
  // own stack (netlists can be millions of gates deep) and visits operands
  // left to right, so node ids are assigned in post-order.
  Circuit circuit(std::move(name));
  std::unordered_map<std::string, NodeId> resolved;
  enum class Visit : std::uint8_t { kFresh, kActive, kDone };
  std::unordered_map<std::string, Visit> state;
  struct Frame {
    const std::string* signal;
    const Definition* def;
    std::size_t next_operand;
    std::size_t fanin_base;  // this gate's fanins start here in `fanins`
  };
  std::vector<Frame> stack;
  std::vector<NodeId> fanins;  // resolved operands of every open frame

  const auto finish = [&](const std::string& signal, NodeId id) {
    state[signal] = Visit::kDone;
    resolved.emplace(signal, id);
  };
  // Resolves `signal` if it is already known or an input; otherwise opens a
  // frame for it and returns kInvalidNode.
  const auto enter = [&](const std::string& signal, int use_line) -> NodeId {
    const auto hit = resolved.find(signal);
    if (hit != resolved.end()) return hit->second;
    const auto def_it = defs.find(signal);
    if (def_it == defs.end()) fail(use_line, "undefined signal '" + signal + "'");
    const Definition& def = def_it->second;
    if (state[signal] == Visit::kActive) {
      fail(def.line, "combinational cycle through '" + signal + "'");
    }
    state[signal] = Visit::kActive;
    if (def.type == GateType::kInput) {
      const NodeId id = circuit.add_input(signal);
      finish(signal, id);
      return id;
    }
    stack.push_back(Frame{&def_it->first, &def, 0, fanins.size()});
    return kInvalidNode;
  };
  const auto resolve = [&](const std::string& root, int use_line) -> NodeId {
    NodeId id = enter(root, use_line);
    while (id == kInvalidNode) {
      Frame& top = stack.back();
      if (top.next_operand < top.def->operands.size()) {
        const NodeId operand =
            enter(top.def->operands[top.next_operand++], top.def->line);
        if (operand != kInvalidNode) fanins.push_back(operand);
        continue;
      }
      std::vector<NodeId> gate_fanins(
          fanins.begin() + static_cast<std::ptrdiff_t>(top.fanin_base),
          fanins.end());
      fanins.resize(top.fanin_base);
      NodeId gate = kInvalidNode;
      try {
        gate = circuit.add_gate(top.def->type, std::move(gate_fanins));
      } catch (const std::invalid_argument& e) {
        fail(top.def->line, e.what());
      }
      circuit.set_node_name(gate, *top.signal);
      finish(*top.signal, gate);
      stack.pop_back();
      if (stack.empty()) {
        id = gate;
      } else {
        fanins.push_back(gate);
      }
    }
    return id;
  };

  // Inputs first, in declaration order, so input_index matches the file.
  for (const std::string& input : input_order) resolve(input, 0);
  for (const auto& [signal, line] : output_order) {
    circuit.add_output(resolve(signal, line), signal);
  }
  // Also materialize any dangling definitions so the circuit round-trips.
  for (const auto& [signal, def] : defs) resolve(signal, def.line);
  return circuit;
}

Circuit read_bench_string(const std::string& text, std::string name) {
  std::istringstream in(text);
  return read_bench(in, std::move(name));
}

Circuit read_bench_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw BenchParseError("cannot open bench file: " + path);
  std::string name = path;
  const std::size_t slash = name.find_last_of('/');
  if (slash != std::string::npos) name = name.substr(slash + 1);
  const std::size_t dot = name.rfind('.');
  if (dot != std::string::npos) name = name.substr(0, dot);
  return read_bench(in, std::move(name));
}

void write_bench(const Circuit& circuit, std::ostream& out) {
  out << "# " << (circuit.name().empty() ? "enbound circuit" : circuit.name())
      << "\n";
  for (NodeId id : circuit.inputs()) {
    out << "INPUT(" << circuit.node_name(id) << ")\n";
  }
  for (NodeId id : circuit.outputs()) {
    out << "OUTPUT(" << circuit.node_name(id) << ")\n";
  }
  for (NodeId id = 0; id < circuit.node_count(); ++id) {
    const auto& node = circuit.node(id);
    if (node.type == GateType::kInput) continue;
    out << circuit.node_name(id) << " = " << to_string(node.type) << "(";
    for (std::size_t i = 0; i < node.fanins.size(); ++i) {
      if (i != 0) out << ", ";
      out << circuit.node_name(node.fanins[i]);
    }
    out << ")\n";
  }
}

std::string write_bench_string(const Circuit& circuit) {
  std::ostringstream out;
  write_bench(circuit, out);
  return out.str();
}

void write_bench_file(const Circuit& circuit, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write bench file: " + path);
  write_bench(circuit, out);
}

}  // namespace enb::netlist
