#include "core/workloads.h"

#include "transform/transform.h"
#include "util/check.h"

namespace ocsp::core {

using csp::arg;
using csp::assign;
using csp::call;
using csp::compute;
using csp::hint;
using csp::if_;
using csp::lit;
using csp::list_of;
using csp::lt;
using csp::print;
using csp::receive;
using csp::reply;
using csp::send;
using csp::seq;
using csp::Value;
using csp::var;
using csp::while_;

namespace {

/// `prefix` followed by `i`: process, fork-site and variable names.
std::string numbered(const char* prefix, int i) {
  std::string name = prefix;
  name += std::to_string(i);
  return name;
}

}  // namespace

net::LinkConfig make_link(const NetworkParams& params) {
  net::LinkConfig link;
  if (params.jitter > 0) {
    link.latency =
        net::uniform_latency(params.latency, params.latency + params.jitter);
  } else {
    link.latency = net::fixed_latency(params.latency);
  }
  link.fifo = params.fifo;
  return link;
}

// ---------------------------------------------------------------------------
// PutLine
// ---------------------------------------------------------------------------

baseline::Scenario putline_scenario(const PutLineParams& params) {
  // Client X: write `lines` lines, stop early on an unsuccessful return.
  std::vector<csp::StmtPtr> loop_body;
  if (params.client_compute > 0) {
    loop_body.push_back(compute(params.client_compute));
  }
  loop_body.push_back(call("Y", "PutLine", {var("i")}, "OK"));
  loop_body.push_back(assign("i", add(var("i"), lit(Value(1)))));
  csp::StmtPtr client = seq({
      assign("i", lit(Value(0))),
      assign("OK", lit(Value(true))),
      while_(and_(lt(var("i"), lit(Value(params.lines))), var("OK")),
             seq(std::move(loop_body))),
      print(list_of({lit(Value("lines-written")), var("i")})),
  });

  if (params.stream) {
    transform::StreamingOptions opts;
    opts.initial_guess = Value(true);
    opts.timeout = params.spec.fork_timeout;
    client = transform::stream_calls(client, opts).program;
  }

  // Window manager Y.
  const double p = params.fail_probability;
  std::map<std::string, csp::NativeHandler> handlers;
  handlers["PutLine"] = [p](const csp::ValueList&, csp::Env&,
                            util::Rng& rng) {
    return Value(p <= 0.0 ? true : !rng.bernoulli(p));
  };
  csp::ServiceConfig sc;
  sc.service_time = params.service_time;
  csp::StmtPtr server = csp::native_service(std::move(handlers), sc);

  baseline::Scenario scenario;
  scenario.options.seed = params.seed;
  scenario.options.spec = params.spec;
  scenario.options.default_link = make_link(params.net);
  scenario.add("X", std::move(client));
  scenario.add("Y", std::move(server));
  return scenario;
}

// ---------------------------------------------------------------------------
// Database + filesystem (the paper's running example)
// ---------------------------------------------------------------------------

baseline::Scenario db_fs_scenario(const DbFsParams& params) {
  std::map<std::string, csp::PredictorSpec> predictors;
  predictors.emplace("OK", csp::PredictorSpec::always(Value(true)));

  csp::StmtPtr client = seq({
      assign("t", lit(Value(0))),
      while_(
          lt(var("t"), lit(Value(params.transactions))),
          seq({
              // S1: update the database.
              call("DB", "Update", {var("t"), mul(var("t"), lit(Value(10)))},
                   "OK"),
              hint(predictors, "dbfs", /*span=*/1, params.spec.fork_timeout),
              // S2: write to the filesystem iff the update succeeded.
              if_(var("OK"),
                  seq({
                      call("FS", "Write", {var("t")}, "W"),
                      print(list_of({lit(Value("wrote")), var("t"), var("W")})),
                  }),
                  print(list_of({lit(Value("skipped")), var("t")}))),
              assign("t", add(var("t"), lit(Value(1)))),
          })),
      print(lit(Value("client-done"))),
  });

  if (params.transform) {
    client = transform::insert_forks(client).program;
  }

  const double p = params.update_fail_probability;
  std::map<std::string, csp::NativeHandler> db_handlers;
  db_handlers["Update"] = [p](const csp::ValueList& args, csp::Env& state,
                              util::Rng& rng) {
    const bool ok = p <= 0.0 ? true : !rng.bernoulli(p);
    if (ok) {
      state.set("item:" + args[0].to_string(), args[1]);
    }
    return Value(ok);
  };
  csp::ServiceConfig db_sc;
  db_sc.service_time = params.db_service_time;

  std::map<std::string, csp::NativeHandler> fs_handlers;
  fs_handlers["Write"] = [](const csp::ValueList& args, csp::Env& state,
                            util::Rng&) {
    const std::int64_t n = state.get_or("writes", Value(0)).as_int();
    state.set("writes", Value(n + 1));
    state.set("last", args[0]);
    return Value(n + 1);
  };
  csp::ServiceConfig fs_sc;
  fs_sc.service_time = params.fs_service_time;

  baseline::Scenario scenario;
  scenario.options.seed = params.seed;
  scenario.options.spec = params.spec;
  scenario.options.default_link = make_link(params.net);
  scenario.add("X", std::move(client));
  scenario.add("DB", csp::native_service(std::move(db_handlers), db_sc));
  scenario.add("FS", csp::native_service(std::move(fs_handlers), fs_sc));
  return scenario;
}

// ---------------------------------------------------------------------------
// Pipeline through a chain of relays
// ---------------------------------------------------------------------------

baseline::Scenario pipeline_scenario(const PipelineParams& params) {
  OCSP_CHECK(params.chain_depth >= 1);

  csp::StmtPtr client = seq({
      assign("i", lit(Value(0))),
      assign("r", lit(Value(0))),
      while_(lt(var("i"), lit(Value(params.calls))),
             seq({
                 call("relay0", "Fwd", {var("i")}, "r"),
                 assign("i", add(var("i"), lit(Value(1)))),
             })),
      print(list_of({lit(Value("pipeline-done")), var("r")})),
  });

  if (params.stream) {
    transform::StreamingOptions opts;
    // Guess what the relay will answer: the echoed argument (stride +1
    // matches i's progression).
    opts.predictor = [](const csp::CallStmt&) {
      // The relay echoes its argument, so the exact guess is the loop
      // index at the fork point.
      return csp::PredictorSpec::from_expr(var("i"));
    };
    opts.timeout = params.spec.fork_timeout;
    client = transform::stream_calls(client, opts).program;
  }

  baseline::Scenario scenario;
  scenario.options.seed = params.seed;
  scenario.options.spec = params.spec;
  scenario.options.default_link = make_link(params.net);
  scenario.add("X", std::move(client));

  for (int k = 0; k + 1 < params.chain_depth; ++k) {
    std::map<std::string, csp::StmtPtr> handlers;
    handlers["Fwd"] = seq({
        call(numbered("relay", k + 1), "Fwd", {arg(0)}, "fwd"),
        reply(var("fwd")),
    });
    csp::StmtPtr relay =
        csp::service_loop(std::move(handlers), params.service_time);
    if (params.stream_relays) {
      // The relay speculatively replies with the echoed argument before its
      // downstream call returns; the guess propagates on the reply's guard
      // tag and chains transitively down the pipeline.
      transform::StreamingOptions relay_opts;
      relay_opts.predictor = [](const csp::CallStmt&) {
        return csp::PredictorSpec::from_expr(arg(0));
      };
      relay_opts.timeout = params.spec.fork_timeout;
      relay = transform::stream_calls(relay, relay_opts).program;
    }
    scenario.add(numbered("relay", k), std::move(relay));
  }
  // Final stage echoes its argument.
  std::map<std::string, csp::NativeHandler> final_handlers;
  final_handlers["Fwd"] = [](const csp::ValueList& args, csp::Env&,
                             util::Rng&) { return args[0]; };
  csp::ServiceConfig sc;
  sc.service_time = params.service_time;
  scenario.add(numbered("relay", params.chain_depth - 1),
               csp::native_service(std::move(final_handlers), sc));
  return scenario;
}

// ---------------------------------------------------------------------------
// Write-through topology (Figures 4 and 5)
// ---------------------------------------------------------------------------

baseline::Scenario write_through_scenario(const WriteThroughParams& params) {
  std::map<std::string, csp::PredictorSpec> predictors;
  predictors.emplace("OK", csp::PredictorSpec::always(Value(true)));

  csp::StmtPtr client = seq({
      assign("t", lit(Value(0))),
      while_(lt(var("t"), lit(Value(params.transactions))),
             seq({
                 call("Y", "Update", {var("t")}, "OK"),
                 hint(predictors, "wt", 1, params.spec.fork_timeout),
                 if_(var("OK"),
                     seq({
                         call("Z", "Write", {var("t")}, "W"),
                         print(list_of(
                             {lit(Value("wrote")), var("t"), var("W")})),
                     })),
                 assign("t", add(var("t"), lit(Value(1)))),
             })),
      print(lit(Value("wt-done"))),
  });
  client = transform::insert_forks(client).program;

  // Y propagates every update to Z before acknowledging.
  std::map<std::string, csp::StmtPtr> y_handlers;
  y_handlers["Update"] = seq({
      call("Z", "Sync", {arg(0)}, "s"),
      reply(lit(Value(true))),
  });

  std::map<std::string, csp::NativeHandler> z_handlers;
  z_handlers["Sync"] = [](const csp::ValueList& args, csp::Env& state,
                          util::Rng&) {
    state.set("synced", args[0]);
    return Value(true);
  };
  z_handlers["Write"] = [](const csp::ValueList& args, csp::Env& state,
                           util::Rng&) {
    const std::int64_t n = state.get_or("writes", Value(0)).as_int();
    state.set("writes", Value(n + 1));
    state.set("last", args[0]);
    return Value(n + 1);
  };
  csp::ServiceConfig sc;
  sc.service_time = params.service_time;

  baseline::Scenario scenario;
  scenario.options.seed = params.seed;
  scenario.options.spec = params.spec;
  scenario.options.default_link = make_link(params.net);
  scenario.add("X", std::move(client));
  scenario.add("Y", csp::service_loop(std::move(y_handlers),
                                      params.service_time));
  scenario.add("Z", csp::native_service(std::move(z_handlers), sc));

  net::LinkConfig slow = make_link(params.net);
  slow.latency = net::fixed_latency(params.net.latency * 10);
  if (params.force_fault) {
    // X's speculative direct Write beats Y's Sync to Z (Figure 4).
    scenario.links.push_back({"Y", "Z", slow});
  } else {
    // The direct hop is otherwise always faster than the two-hop
    // propagation; slow it down so the ordering holds and no fault occurs.
    scenario.links.push_back({"X", "Z", slow});
  }
  return scenario;
}

// ---------------------------------------------------------------------------
// Mutual speculation (Figures 6 and 7)
// ---------------------------------------------------------------------------

baseline::Scenario mutual_scenario(const MutualParams& params) {
  baseline::Scenario scenario;
  scenario.options.seed = params.seed;
  scenario.options.spec = params.spec;
  scenario.options.default_link = make_link(params.net);

  std::map<std::string, csp::NativeHandler> echo42;
  echo42["Work"] = [](const csp::ValueList&, csp::Env&, util::Rng&) {
    return Value(42);
  };
  csp::ServiceConfig sc;
  sc.service_time = params.service_time;

  if (!params.crossing) {
    // Figure 6: Z's S1 receives X's speculative M1, so z1 inherits {x1};
    // Z publishes PRECEDENCE(z1, {x1}) and commits when COMMIT(x1) lands.
    std::map<std::string, csp::PredictorSpec> px;
    px.emplace("r1", csp::PredictorSpec::always(Value(42)));
    csp::StmtPtr x = seq({
        call("Y", "Work", {lit(Value(0))}, "r1"),
        hint(px, "fig6-x", 1, params.spec.fork_timeout),
        send("Z", "M1", {lit(Value(7))}),
        receive(),  // M2 from Z
        print(list_of({lit(Value("x-done")), var("r1"), arg(0)})),
    });
    std::map<std::string, csp::PredictorSpec> pz;
    pz.emplace("r2", csp::PredictorSpec::always(Value(42)));
    csp::StmtPtr z = seq({
        receive(),  // M1 from X
        assign("m1", arg(0)),
        call("W", "Work", {var("m1")}, "r2"),
        hint(pz, "fig6-z", 1, params.spec.fork_timeout),
        send("X", "M2", {var("r2")}),
        print(list_of({lit(Value("z-done")), var("m1"), var("r2")})),
    });
    scenario.add("X", transform::insert_forks(x).program);
    scenario.add("Z", transform::insert_forks(z).program);
    scenario.add("Y", csp::native_service(echo42, sc));
    scenario.add("W", csp::native_service(echo42, sc));
    // X's call to Y is the slow leg, so Z's join happens while x1 is still
    // in doubt and z1 must go through PRECEDENCE + the COMMIT cascade.
    net::LinkConfig slow = make_link(params.net);
    slow.latency = net::fixed_latency(params.net.latency * 10);
    scenario.links.push_back({"X", "Y", slow});
    scenario.links.push_back({"Y", "X", slow});
    return scenario;
  }

  // Figure 7: each client's speculative send contaminates the server the
  // *other* client's S1 calls, closing the cycle x1 -> z1 -> x1.  The link
  // overrides make each client's own Take call the slow one, so the other
  // side's speculative Put always arrives first.
  // Take's reply value is independent of the Puts so the value check at the
  // join passes and the abort is a *pure* time fault: the reply's guard tag
  // (contaminated by the other client's speculative Put) is what closes the
  // cycle, exactly as in Figure 7.
  std::map<std::string, csp::NativeHandler> box;
  box["Take"] = [](const csp::ValueList&, csp::Env& state, util::Rng&) {
    state.set("takes", Value(state.get_or("takes", Value(0)).as_int() + 1));
    return Value(42);
  };
  box["Put"] = [](const csp::ValueList& args, csp::Env& state, util::Rng&) {
    state.set("v", args[0]);
    return Value(true);
  };

  auto make_client = [&](const std::string& mine, const std::string& theirs,
                         int tag, const std::string& site) {
    std::map<std::string, csp::PredictorSpec> preds;
    preds.emplace("r", csp::PredictorSpec::always(Value(42)));
    csp::StmtPtr prog = seq({
        call(mine, "Take", {}, "r"),
        hint(preds, site, 1, params.spec.fork_timeout),
        send(theirs, "Put", {lit(Value(tag))}),
        print(list_of({lit(Value(site)), var("r")})),
    });
    return transform::insert_forks(prog).program;
  };
  scenario.add("X", make_client("SX", "SZ", 1, "fig7-x"));
  scenario.add("Z", make_client("SZ", "SX", 2, "fig7-z"));
  scenario.add("SX", csp::native_service(box, sc));
  scenario.add("SZ", csp::native_service(box, sc));

  // Slow Take request links; fast speculative Put links.
  net::LinkConfig slow = make_link(params.net);
  slow.latency = net::fixed_latency(params.net.latency * 20);
  scenario.links.push_back({"X", "SX", slow});
  scenario.links.push_back({"Z", "SZ", slow});
  return scenario;
}

// ---------------------------------------------------------------------------
// Shared server, independent clients (section 5 comparison)
// ---------------------------------------------------------------------------

baseline::Scenario shared_server_scenario(const SharedServerParams& params) {
  baseline::Scenario scenario;
  scenario.options.seed = params.seed;
  scenario.options.spec = params.spec;
  scenario.options.default_link = make_link(params.net);

  std::map<std::string, csp::NativeHandler> handlers;
  handlers["Req"] = [](const csp::ValueList& args, csp::Env& state,
                       util::Rng&) {
    const std::int64_t n = state.get_or("served", Value(0)).as_int();
    state.set("served", Value(n + 1));
    return args[0];
  };
  csp::ServiceConfig sc;
  sc.service_time = params.service_time;

  for (int c = 0; c < params.clients; ++c) {
    csp::StmtPtr client = seq({
        assign("i", lit(Value(0))),
        assign("r", lit(Value(0))),
        while_(lt(var("i"), lit(Value(params.calls_per_client))),
               seq({
                   call("S", "Req", {var("i")}, "r"),
                   assign("i", add(var("i"), lit(Value(1)))),
               })),
        print(list_of({lit(Value("client")), lit(Value(c)), var("r")})),
    });
    if (params.stream) {
      transform::StreamingOptions opts;
      opts.predictor = [](const csp::CallStmt&) {
        return csp::PredictorSpec::from_expr(var("i"));
      };
      opts.timeout = params.spec.fork_timeout;
      client = transform::stream_calls(client, opts).program;
    }
    const std::string name = numbered("C", c);
    scenario.add(name, std::move(client));
    if (params.client_skew > 0 && c > 0) {
      net::LinkConfig skewed = make_link(params.net);
      skewed.latency = net::fixed_latency(params.net.latency +
                                          params.client_skew * c);
      scenario.links.push_back({name, "S", skewed});
    }
  }
  scenario.add("S", csp::native_service(std::move(handlers), sc));
  return scenario;
}

// ---------------------------------------------------------------------------
// Statically-safe fan-out
// ---------------------------------------------------------------------------

std::string safe_fanout_server(int i) { return numbered("F", i); }

baseline::Scenario safe_fanout_scenario(const SafeFanoutParams& params) {
  OCSP_CHECK(params.servers >= 1);

  // One call per service; every result variable is write-only, so each
  // hint's passed set is empty and the halves' targets are disjoint —
  // exactly the SAFE shape.  Automatic hints (no predictors) let the
  // classifier prove it rather than trust a declaration.
  std::vector<csp::StmtPtr> body;
  for (int i = 0; i < params.servers; ++i) {
    body.push_back(call(safe_fanout_server(i), "Work", {lit(Value(i))},
                        numbered("r", i)));
    if (i + 1 < params.servers) {
      body.push_back(hint({}, numbered("fan", i), /*span=*/1,
                          params.spec.fork_timeout));
    }
  }
  body.push_back(print(lit(Value("fanout-done"))));
  csp::StmtPtr client = seq(std::move(body));

  if (params.transform) {
    client = transform::insert_forks(client).program;
  }

  std::map<std::string, csp::NativeHandler> handlers;
  handlers["Work"] = [](const csp::ValueList& args, csp::Env& state,
                        util::Rng&) {
    const std::int64_t n = state.get_or("served", Value(0)).as_int();
    state.set("served", Value(n + 1));
    return args[0];
  };
  csp::ServiceConfig sc;
  sc.service_time = params.service_time;

  baseline::Scenario scenario;
  scenario.options.seed = params.seed;
  scenario.options.spec = params.spec;
  scenario.options.default_link = make_link(params.net);
  scenario.add("X", std::move(client));
  for (int i = 0; i < params.servers; ++i) {
    scenario.add(safe_fanout_server(i), csp::native_service(handlers, sc));
  }
  return scenario;
}

// ---------------------------------------------------------------------------
// Commutative registry
// ---------------------------------------------------------------------------

std::string commute_registry_client(int i) { return numbered("C", i); }

// ---------------------------------------------------------------------------
// Abort storm (adaptive-governor showcase)
// ---------------------------------------------------------------------------

baseline::Scenario abort_storm_scenario(const AbortStormParams& params) {
  // Client X: stream Lookup calls, folding every reply into an accumulator
  // so each guessed value is really consumed (a mismatch is a value fault).
  csp::StmtPtr client = seq({
      assign("i", lit(Value(0))),
      assign("acc", lit(Value(0))),
      while_(lt(var("i"), lit(Value(params.calls))),
             seq({
                 call("Y", "Lookup", {var("i")}, "R"),
                 assign("acc", add(var("acc"), var("R"))),
                 assign("i", add(var("i"), lit(Value(1)))),
             })),
      print(list_of({lit(Value("storm-acc")), var("acc")})),
  });

  if (params.stream) {
    transform::StreamingOptions opts;
    // Guess the constant 0: right (hit_period-1)/hit_period of the time
    // *wrong*, but the periodic hits keep resetting retry limit L.
    opts.predictor = [](const csp::CallStmt&) {
      return csp::PredictorSpec::always(Value(0));
    };
    opts.timeout = params.spec.fork_timeout;
    client = transform::stream_calls(client, opts).program;
  }

  // Server Y: deterministic in the argument, so the committed trace is
  // identical however speculation fares.
  const std::int64_t period = std::max(1, params.hit_period);
  std::map<std::string, csp::NativeHandler> handlers;
  handlers["Lookup"] = [period](const csp::ValueList& args, csp::Env&,
                                util::Rng&) {
    const std::int64_t i = args.empty() ? 0 : args[0].as_int();
    return Value(i % period == 0 ? std::int64_t{0} : i);
  };
  csp::ServiceConfig sc;
  sc.service_time = params.service_time;
  csp::StmtPtr server = csp::native_service(std::move(handlers), sc);

  baseline::Scenario scenario;
  scenario.options.seed = params.seed;
  scenario.options.spec = params.spec;
  scenario.options.default_link = make_link(params.net);
  scenario.add("X", std::move(client));
  scenario.add("Y", std::move(server));
  return scenario;
}

// ---------------------------------------------------------------------------
// Compute-bound fan-out (parallel-executor speedup workload)
// ---------------------------------------------------------------------------

std::string compute_fanout_client(int i) { return numbered("W", i); }
std::string compute_fanout_server(int i) { return numbered("S", i); }

baseline::Scenario compute_fanout_scenario(const ComputeFanoutParams& params) {
  OCSP_CHECK(params.pairs >= 1);
  OCSP_CHECK(params.calls >= 1);

  baseline::Scenario scenario;
  scenario.options.seed = params.seed;
  scenario.options.spec = params.spec;
  scenario.options.default_link = make_link(params.net);

  // Clients first: ids 0..pairs-1, so id mod workers round-robins the
  // compute-heavy processes across shards.
  for (int c = 0; c < params.pairs; ++c) {
    std::vector<csp::StmtPtr> body;
    if (params.compute > 0) body.push_back(compute(params.compute));
    body.push_back(
        call(compute_fanout_server(c), "Work", {var("i")}, "R"));
    body.push_back(assign("acc", add(var("acc"), var("R"))));
    body.push_back(assign("i", add(var("i"), lit(Value(1)))));

    csp::StmtPtr client = seq({
        assign("i", lit(Value(0))),
        assign("acc", lit(Value(0))),
        while_(lt(var("i"), lit(Value(params.calls))), seq(std::move(body))),
        print(list_of({lit(Value("fanout")), lit(Value(c)), var("acc")})),
    });

    if (params.stream) {
      transform::StreamingOptions opts;
      // The server echoes its argument, so the loop index at the fork is
      // the exact guess (except on deliberate miss_period misses).
      opts.predictor = [](const csp::CallStmt&) {
        return csp::PredictorSpec::from_expr(var("i"));
      };
      opts.timeout = params.spec.fork_timeout;
      client = transform::stream_calls(client, opts).program;
    }
    scenario.add(compute_fanout_client(c), std::move(client));
  }

  // Reply depends only on the argument: the committed trace is identical
  // however speculation (or the executor's sharding) fares.
  const std::int64_t period = params.miss_period;
  std::map<std::string, csp::NativeHandler> handlers;
  handlers["Work"] = [period](const csp::ValueList& args, csp::Env&,
                              util::Rng&) {
    const std::int64_t i = args.empty() ? 0 : args[0].as_int();
    if (period > 0 && (i + 1) % period == 0) return Value(std::int64_t{0});
    return Value(i);
  };
  csp::ServiceConfig sc;
  sc.service_time = params.service_time;
  for (int c = 0; c < params.pairs; ++c) {
    scenario.add(compute_fanout_server(c), csp::native_service(handlers, sc));
  }
  return scenario;
}

analysis::CommuteContext scenario_commute_context(
    const baseline::Scenario& scenario, const std::string& self) {
  std::vector<analysis::SystemProcess> procs;
  procs.reserve(scenario.processes.size());
  for (const auto& p : scenario.processes) {
    procs.push_back({p.name, p.program, p.commute});
  }
  return analysis::build_commute_context(procs, self);
}

baseline::Scenario commute_registry_scenario(const CommuteRegistryParams& p) {
  OCSP_CHECK(p.clients >= 1);

  // The registry is a service_loop so infer_summaries can read the dispatch
  // arms; every handler shape below is deliberate (see the header comment).
  std::map<std::string, csp::StmtPtr> handlers;
  handlers["Add"] = seq({
      assign("count", add(var("count"), arg(0))),
      reply(lit(Value(true))),
  });
  handlers["Note"] = assign("notes", add(var("notes"), arg(0)));
  if (p.mutate_ops) {
    handlers["Stamp"] = seq({
        assign("stamps", add(var("stamps"), lit(Value(1)))),
        reply(var("stamps")),
    });
  }
  csp::Env registry_env;
  registry_env.set("count", Value(0));
  registry_env.set("notes", Value(0));
  registry_env.set("stamps", Value(0));

  baseline::Scenario scenario;
  scenario.options.seed = p.seed;
  scenario.options.spec = p.spec;
  scenario.options.default_link = make_link(p.net);

  for (int c = 0; c < p.clients; ++c) {
    std::vector<csp::StmtPtr> body;
    body.push_back(call("R", "Add", {lit(Value(1))}, "a"));  // reply dead
    if (p.mutate_ops) {
      // Stamp's reply is the globally-ordered total: any speculative guess
      // for it is wrong under contention, but `s` is only ever branched on
      // (boolean use) and `junk` is never read (dead) — the shapes the
      // verify relaxation forgives.
      body.push_back(call("R", "Stamp", {}, "s"));
      body.push_back(if_(var("s"), assign("x", add(var("x"), lit(Value(1))))));
      body.push_back(call("R", "Stamp", {}, "junk"));
    }
    body.push_back(send("R", "Note", {var("i")}));
    body.push_back(assign("i", add(var("i"), lit(Value(1)))));

    csp::StmtPtr client = seq({
        assign("i", lit(Value(0))),
        assign("x", lit(Value(0))),
        while_(lt(var("i"), lit(Value(p.iterations))), seq(std::move(body))),
        print(list_of({lit(Value("registry")), lit(Value(c)), var("x")})),
    });

    if (p.stream) {
      transform::StreamingOptions opts;
      opts.predictor = [](const csp::CallStmt& cs) {
        // Add always replies true; Stamp's stale guess is deliberately
        // wrong from the second call onward.
        return cs.op == "Add" ? csp::PredictorSpec::always(Value(true))
                              : csp::PredictorSpec::always(Value(1));
      };
      opts.timeout = p.spec.fork_timeout;
      client = transform::stream_calls(client, opts).program;
    }
    scenario.add(commute_registry_client(c), std::move(client));
    if (p.client_skew > 0 && c > 0) {
      net::LinkConfig skewed = make_link(p.net);
      skewed.latency =
          net::fixed_latency(p.net.latency + p.client_skew * c);
      scenario.links.push_back({commute_registry_client(c), "R", skewed});
    }
  }
  scenario.add("R", csp::service_loop(std::move(handlers), p.service_time),
               std::move(registry_env));

  if (p.reclassify && p.stream) {
    for (auto& proc : scenario.processes) {
      if (proc.name == "R") continue;
      const analysis::CommuteContext ctx =
          scenario_commute_context(scenario, proc.name);
      proc.program = transform::reclassify(proc.program, {&ctx}).program;
    }
  }
  return scenario;
}

}  // namespace ocsp::core
