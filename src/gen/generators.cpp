#include "gen/generators.hpp"

#include <string>
#include <vector>

#include "base/log.hpp"

namespace presat {

namespace {

NodeId andAll(Netlist& nl, const std::vector<NodeId>& terms) {
  PRESAT_CHECK(!terms.empty());
  if (terms.size() == 1) return terms[0];
  return nl.addGate(GateType::kAnd, terms);
}

NodeId orAll(Netlist& nl, const std::vector<NodeId>& terms) {
  PRESAT_CHECK(!terms.empty());
  if (terms.size() == 1) return terms[0];
  return nl.addGate(GateType::kOr, terms);
}

}  // namespace

Netlist makeCounter(int bits, bool withEnable) {
  PRESAT_CHECK(bits >= 1);
  Netlist nl;
  NodeId carry = withEnable ? nl.addInput("en") : nl.addConst(true, "one");
  std::vector<NodeId> state;
  state.reserve(static_cast<size_t>(bits));
  for (int i = 0; i < bits; ++i) state.push_back(nl.addDff(numbered("s", i)));
  for (int i = 0; i < bits; ++i) {
    NodeId sum = nl.mkXor(state[static_cast<size_t>(i)], carry, numbered("sum", i));
    carry = nl.mkAnd(state[static_cast<size_t>(i)], carry, numbered("c", i + 1));
    nl.connectDffData(state[static_cast<size_t>(i)], sum);
  }
  nl.markOutput(carry, "cout");
  nl.validate();
  return nl;
}

Netlist makeGrayCounter(int bits) {
  PRESAT_CHECK(bits >= 1);
  Netlist nl;
  std::vector<NodeId> gray;
  for (int i = 0; i < bits; ++i) gray.push_back(nl.addDff(numbered("g", i)));

  // Decode gray -> binary: b_i = g_i ^ b_{i+1}, b_{n-1} = g_{n-1}.
  std::vector<NodeId> binary(static_cast<size_t>(bits));
  binary[static_cast<size_t>(bits - 1)] = gray[static_cast<size_t>(bits - 1)];
  for (int i = bits - 2; i >= 0; --i) {
    binary[static_cast<size_t>(i)] = nl.mkXor(gray[static_cast<size_t>(i)],
                                              binary[static_cast<size_t>(i + 1)],
                                              numbered("b", i));
  }
  // Increment.
  NodeId carry = nl.addConst(true, "one");
  std::vector<NodeId> nextBinary(static_cast<size_t>(bits));
  for (int i = 0; i < bits; ++i) {
    nextBinary[static_cast<size_t>(i)] =
        nl.mkXor(binary[static_cast<size_t>(i)], carry, numbered("nb", i));
    carry = nl.mkAnd(binary[static_cast<size_t>(i)], carry, numbered("nc", i + 1));
  }
  // Re-encode binary -> gray: g_i = b_i ^ b_{i+1}, g_{n-1} = b_{n-1}.
  for (int i = 0; i < bits; ++i) {
    NodeId next = (i == bits - 1)
                      ? nextBinary[static_cast<size_t>(i)]
                      : nl.mkXor(nextBinary[static_cast<size_t>(i)],
                                 nextBinary[static_cast<size_t>(i + 1)], numbered("ng", i));
    nl.connectDffData(gray[static_cast<size_t>(i)], next);
  }
  nl.markOutput(gray[0], "lsb");
  nl.validate();
  return nl;
}

Netlist makeLfsr(int bits, uint64_t tapsMask) {
  PRESAT_CHECK(bits >= 2 && bits <= 64);
  if (tapsMask == 0) tapsMask = (1ull << (bits - 1)) | (1ull << (bits - 2));
  Netlist nl;
  NodeId en = nl.addInput("en");
  std::vector<NodeId> state;
  for (int i = 0; i < bits; ++i) state.push_back(nl.addDff(numbered("s", i)));

  std::vector<NodeId> taps;
  for (int i = 0; i < bits; ++i) {
    if ((tapsMask >> i) & 1) taps.push_back(state[static_cast<size_t>(i)]);
  }
  PRESAT_CHECK(!taps.empty());
  NodeId feedback = taps.size() == 1 ? taps[0] : nl.addGate(GateType::kXor, taps, "fb");
  for (int i = 0; i < bits; ++i) {
    NodeId shifted = (i == 0) ? feedback : state[static_cast<size_t>(i - 1)];
    NodeId next = nl.mkMux(en, state[static_cast<size_t>(i)], shifted, numbered("n", i));
    nl.connectDffData(state[static_cast<size_t>(i)], next);
  }
  nl.markOutput(state[static_cast<size_t>(bits - 1)], "out");
  nl.validate();
  return nl;
}

Netlist makeShiftRegister(int bits) {
  PRESAT_CHECK(bits >= 1);
  Netlist nl;
  NodeId d = nl.addInput("d");
  std::vector<NodeId> state;
  for (int i = 0; i < bits; ++i) state.push_back(nl.addDff(numbered("s", i)));
  for (int i = 0; i < bits; ++i) {
    nl.connectDffData(state[static_cast<size_t>(i)],
                      i == 0 ? d : state[static_cast<size_t>(i - 1)]);
  }
  nl.markOutput(state[static_cast<size_t>(bits - 1)], "q");
  nl.validate();
  return nl;
}

Netlist makeRoundRobinArbiter(int clients) {
  PRESAT_CHECK(clients >= 2 && clients <= 8);
  const int n = clients;
  Netlist nl;
  std::vector<NodeId> req;
  for (int i = 0; i < n; ++i) req.push_back(nl.addInput(numbered("r", i)));
  std::vector<NodeId> ptr;  // one-hot pointer to the highest-priority client
  for (int i = 0; i < n; ++i) ptr.push_back(nl.addDff(numbered("p", i)));

  std::vector<NodeId> notReq;
  for (int i = 0; i < n; ++i) notReq.push_back(nl.mkNot(req[static_cast<size_t>(i)]));

  // grant_i = OR over pointer positions s of
  //   ptr_s & req_i & (no requester strictly between s and i in cyclic order)
  std::vector<NodeId> grant;
  for (int i = 0; i < n; ++i) {
    std::vector<NodeId> terms;
    for (int s = 0; s < n; ++s) {
      int gap = (i - s + n) % n;
      std::vector<NodeId> factors{ptr[static_cast<size_t>(s)], req[static_cast<size_t>(i)]};
      for (int e = 0; e < gap; ++e) {
        factors.push_back(notReq[static_cast<size_t>((s + e) % n)]);
      }
      terms.push_back(andAll(nl, factors));
    }
    grant.push_back(orAll(nl, terms));
  }
  NodeId anyGrant = orAll(nl, grant);

  // Pointer advances to the position after the granted client; holds when no
  // request is pending.
  for (int j = 0; j < n; ++j) {
    NodeId rotated = grant[static_cast<size_t>((j - 1 + n) % n)];
    NodeId next = nl.mkMux(anyGrant, ptr[static_cast<size_t>(j)], rotated);
    nl.connectDffData(ptr[static_cast<size_t>(j)], next);
  }
  for (int i = 0; i < n; ++i) nl.markOutput(grant[static_cast<size_t>(i)], numbered("g", i));
  nl.validate();
  return nl;
}

Netlist makeTrafficLight() {
  Netlist nl;
  NodeId car = nl.addInput("car");  // vehicle waiting on the farm road
  NodeId s1 = nl.addDff("s1");
  NodeId s0 = nl.addDff("s0");  // 00=HG 01=HY 10=FG 11=FY
  NodeId t1 = nl.addDff("t1");
  NodeId t0 = nl.addDff("t0");

  NodeId ns1 = nl.mkNot(s1);
  NodeId ns0 = nl.mkNot(s0);
  NodeId isHG = nl.mkAnd(ns1, ns0, "isHG");
  NodeId isHY = nl.mkAnd(ns1, s0, "isHY");
  NodeId isFG = nl.mkAnd(s1, ns0, "isFG");
  NodeId isFY = nl.mkAnd(s1, s0, "isFY");

  NodeId timerDone = nl.mkAnd(t1, t0, "timerDone");
  NodeId noCar = nl.mkNot(car);

  // HG leaves only when a car waits and the minimum green elapsed; FG leaves
  // when its timer elapses or the farm road empties; yellows leave on timer.
  NodeId advHG = nl.mkAnd(isHG, nl.mkAnd(car, timerDone));
  NodeId advFG = nl.mkAnd(isFG, nl.mkOr(timerDone, noCar));
  NodeId advY = nl.mkAnd(nl.mkOr(isHY, isFY), timerDone);
  NodeId advance = nl.mkOr(advHG, nl.mkOr(advFG, advY), "advance");

  // Two-bit state increment with wraparound.
  NodeId incS0 = nl.mkNot(s0);
  NodeId incS1 = nl.mkXor(s1, s0);
  nl.connectDffData(s0, nl.mkMux(advance, s0, incS0));
  nl.connectDffData(s1, nl.mkMux(advance, s1, incS1));

  // Timer: reset on a state change, otherwise saturating increment.
  NodeId incT0 = nl.mkNot(t0);
  NodeId incT1 = nl.mkXor(t1, t0);
  NodeId heldT0 = nl.mkMux(timerDone, incT0, t0);
  NodeId heldT1 = nl.mkMux(timerDone, incT1, t1);
  NodeId zero = nl.addConst(false, "zero");
  nl.connectDffData(t0, nl.mkMux(advance, heldT0, zero));
  nl.connectDffData(t1, nl.mkMux(advance, heldT1, zero));

  nl.markOutput(isHG, "hwy_green");
  nl.markOutput(isHY, "hwy_yellow");
  nl.markOutput(nl.mkOr(isFG, isFY, "hwy_red"), "hwy_red");
  nl.markOutput(isFG, "farm_green");
  nl.markOutput(isFY, "farm_yellow");
  nl.markOutput(nl.mkOr(isHG, isHY, "farm_red"), "farm_red");
  nl.validate();
  return nl;
}

Netlist makeAccumulator(int bits) {
  PRESAT_CHECK(bits >= 1);
  Netlist nl;
  std::vector<NodeId> in, state;
  for (int i = 0; i < bits; ++i) in.push_back(nl.addInput(numbered("a", i)));
  for (int i = 0; i < bits; ++i) state.push_back(nl.addDff(numbered("s", i)));
  NodeId carry = nl.addConst(false, "cin");
  for (int i = 0; i < bits; ++i) {
    NodeId si = state[static_cast<size_t>(i)];
    NodeId ai = in[static_cast<size_t>(i)];
    NodeId halfSum = nl.mkXor(si, ai, numbered("h", i));
    NodeId sum = nl.mkXor(halfSum, carry, numbered("sum", i));
    // carry-out = (s & a) | (c & (s ^ a))
    NodeId gen = nl.mkAnd(si, ai, numbered("g", i));
    NodeId prop = nl.mkAnd(halfSum, carry, numbered("p", i));
    carry = nl.mkOr(gen, prop, numbered("c", i + 1));
    nl.connectDffData(si, sum);
  }
  nl.markOutput(carry, "cout");
  nl.validate();
  return nl;
}

Netlist makeCombinationLock(const std::vector<int>& code, int bitsPerSymbol) {
  PRESAT_CHECK(!code.empty() && bitsPerSymbol >= 1 && bitsPerSymbol <= 8);
  const int len = static_cast<int>(code.size());
  int stateBits = 1;
  while ((1 << stateBits) < len + 1) ++stateBits;
  for (int digit : code) {
    PRESAT_CHECK(digit >= 0 && digit < (1 << bitsPerSymbol)) << "code digit out of range";
  }

  Netlist nl;
  std::vector<NodeId> in;
  for (int b = 0; b < bitsPerSymbol; ++b) in.push_back(nl.addInput(numbered("in", b)));
  std::vector<NodeId> progress;
  for (int b = 0; b < stateBits; ++b) progress.push_back(nl.addDff(numbered("p", b)));

  std::vector<NodeId> notIn, notProgress;
  for (NodeId i : in) notIn.push_back(nl.mkNot(i));
  for (NodeId p : progress) notProgress.push_back(nl.mkNot(p));

  // eq[i]: progress counter equals i (for i in 0..len).
  auto stateEquals = [&](int value) {
    std::vector<NodeId> terms;
    for (int b = 0; b < stateBits; ++b) {
      terms.push_back(((value >> b) & 1) ? progress[static_cast<size_t>(b)]
                                         : notProgress[static_cast<size_t>(b)]);
    }
    return andAll(nl, terms);
  };
  // match[i]: the input symbol equals code[i].
  auto symbolEquals = [&](int digit) {
    std::vector<NodeId> terms;
    for (int b = 0; b < bitsPerSymbol; ++b) {
      terms.push_back(((digit >> b) & 1) ? in[static_cast<size_t>(b)]
                                         : notIn[static_cast<size_t>(b)]);
    }
    return andAll(nl, terms);
  };

  // cond[i] = (progress == i) & (input == code[i]): advance to i+1. The open
  // state `len` is absorbing. Everything else resets to 0, so the decoded
  // conditions are mutually exclusive and each next-state bit is a plain OR.
  std::vector<NodeId> advanceTo(static_cast<size_t>(len + 1), kNoNode);
  for (int i = 0; i < len; ++i) {
    advanceTo[static_cast<size_t>(i + 1)] =
        nl.mkAnd(stateEquals(i), symbolEquals(code[i]), numbered("adv", i + 1));
  }
  NodeId open = stateEquals(len);

  for (int b = 0; b < stateBits; ++b) {
    std::vector<NodeId> terms;
    for (int value = 1; value <= len; ++value) {
      if ((value >> b) & 1) terms.push_back(advanceTo[static_cast<size_t>(value)]);
    }
    if ((len >> b) & 1) terms.push_back(open);  // absorbing open state
    NodeId next = terms.empty() ? nl.addConst(false, numbered("zero", b))
                                : orAll(nl, terms);
    nl.connectDffData(progress[static_cast<size_t>(b)], next);
  }
  nl.markOutput(open, "open");
  nl.validate();
  return nl;
}

}  // namespace presat
