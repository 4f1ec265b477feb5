// ISCAS89 `.bench` netlist reader/writer.
//
// Accepted grammar (case-insensitive gate names, '#' comments):
//   INPUT(name)
//   OUTPUT(name)
//   name = GATE(a, b, ...)
// with GATE in {AND, OR, NAND, NOR, NOT/INV, BUF/BUFF, XOR, XNOR, DFF, MUX,
// CONST0, CONST1}. MUX/CONST* are a small dialect extension used by the
// generators (standard ISCAS89 files never contain them). Signals may be
// referenced before definition, as in the original benchmark files.
//
// parseBench is the one parser. It never aborts: on malformed text it
// returns nullopt and sets *error to the first problem found, formatted as
// ".bench line N: <what>" (N is 1-based). It checks the grammar, gate names,
// fanin counts per gate type, redefinitions, undefined signals and
// combinational cycles (feedback is only legal through a DFF), so the
// netlist it returns always passes Netlist::validate(). Nodes are created in
// a fixed order: inputs, then DFFs in definition order, then every other
// definition in file order with its fanins first.
//
// parseBenchString and parseBenchFile are the trusted-input wrappers: they
// PRESAT_CHECK-abort with the same message.
#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>

#include "circuit/netlist.hpp"

namespace presat {

std::optional<Netlist> parseBench(std::string_view text, std::string* error);
Netlist parseBenchString(std::string_view text);
Netlist parseBenchFile(const std::string& path);

void writeBench(std::ostream& out, const Netlist& netlist);
std::string toBenchString(const Netlist& netlist);

}  // namespace presat
