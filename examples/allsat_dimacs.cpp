// All-solutions enumeration on DIMACS CNF input.
//
//   $ example_allsat_dimacs [file.cnf]
//
// Reads a CNF (with an optional `c proj v1 v2 ...` projection-scope line) and
// enumerates its projected solutions with three engines:
//   * minterm blocking clauses,
//   * cube blocking clauses with implicant lifting (full projections only),
//   * the success-driven circuit solver (via CNF -> circuit conversion).
// Without an argument, a built-in example formula is used.
#include <cstdio>
#include <string>

#include "allsat/blocking.hpp"
#include "allsat/lifting.hpp"
#include "allsat/success_driven.hpp"
#include "circuit/from_cnf.hpp"
#include "cnf/dimacs.hpp"

using namespace presat;

namespace {

const char* kExample =
    "c example: a 6-variable formula with structured solutions\n"
    "c proj 1 2 3 4 5 6\n"
    "p cnf 6 4\n"
    "1 2 3 0\n"
    "-1 4 0\n"
    "-2 5 0\n"
    "-3 6 0\n";

void printCubes(const AllSatResult& r, size_t limit) {
  for (size_t i = 0; i < r.cubes.size() && i < limit; ++i) {
    std::printf("    %s\n", toString(r.cubes[i]).c_str());
  }
  if (r.cubes.size() > limit) std::printf("    ... %zu more\n", r.cubes.size() - limit);
}

}  // namespace

int main(int argc, char** argv) {
  DimacsFile file = argc > 1 ? parseDimacsFile(argv[1]) : parseDimacsString(kExample);
  const Cnf& cnf = file.cnf;

  std::vector<Var> projection;
  if (file.projection) {
    projection = *file.projection;
  } else {
    for (Var v = 0; v < cnf.numVars(); ++v) projection.push_back(v);
  }
  std::printf("formula: %d vars, %zu clauses; projection scope: %zu vars\n\n", cnf.numVars(),
              cnf.numClauses(), projection.size());

  AllSatResult minterm = blockingAllSat(cnf, projection);
  std::printf("minterm blocking   : %s solutions, %zu blocking clauses, %.3f ms\n",
              minterm.mintermCount.toDecimal().c_str(), minterm.cubes.size(),
              minterm.stats.seconds * 1e3);

  if (projection.size() == static_cast<size_t>(cnf.numVars())) {
    ModelLifter lifter = [&cnf](const std::vector<lbool>& model) {
      return shrinkModelToImplicant(cnf, model);
    };
    AllSatResult cube = blockingAllSat(cnf, projection, lifter);
    std::printf("cube blocking      : %s solutions in %zu cubes, %.3f ms\n",
                cube.mintermCount.toDecimal().c_str(), cube.cubes.size(),
                cube.stats.seconds * 1e3);
    std::printf("  cubes:\n");
    printCubes(cube, 8);
  } else {
    std::printf("cube blocking      : skipped (implicant lifting needs a full projection)\n");
  }

  // Success-driven engine: convert the CNF to a circuit, require root = 1,
  // and project onto the input nodes corresponding to the projection scope.
  CnfCircuit circuit = cnfToCircuit(cnf);
  CircuitAllSatProblem problem;
  problem.netlist = &circuit.netlist;
  problem.objectives = {{circuit.root, true}};
  for (Var v : projection) problem.projectionSources.push_back(circuit.varNode[static_cast<size_t>(v)]);
  SuccessDrivenResult sd = successDrivenAllSat(problem);
  std::printf("success-driven     : %s solutions in %zu cubes, graph %llu nodes, %.3f ms\n",
              sd.summary.mintermCount.toDecimal().c_str(), sd.summary.cubes.size(),
              static_cast<unsigned long long>(sd.summary.stats.graphNodes),
              sd.summary.stats.seconds * 1e3);
  std::printf("  cubes:\n");
  printCubes(sd.summary, 8);

  bool agree = sd.summary.mintermCount == minterm.mintermCount;
  std::printf("\nengines agree on the solution count: %s\n", agree ? "yes" : "NO (bug!)");
  return agree ? 0 : 1;
}
