#include "csp/service.h"

#include <memory>
#include <utility>

#include "util/check.h"

namespace ocsp::csp {

StmtPtr native_service(std::map<std::string, NativeHandler> handlers,
                       ServiceConfig config) {
  auto table = std::make_shared<std::map<std::string, NativeHandler>>(
      std::move(handlers));
  auto unknown = std::make_shared<const Value>(config.unknown_op_reply);
  auto dispatch = [table, unknown](Env& env, util::Rng& rng) {
    const std::string& op = env.get("__op").as_string();
    auto it = table->find(op);
    if (it == table->end()) {
      env.set("__reply", *unknown);
      return;
    }
    const ValueList args = env.get("__args").as_list();
    env.set("__reply", it->second(args, env, rng));
  };

  std::vector<StmtPtr> body;
  body.push_back(receive());
  if (config.service_time > 0) body.push_back(compute(config.service_time));
  body.push_back(native("dispatch", dispatch));
  body.push_back(if_(var("__is_call"), reply(var("__reply"))));
  return while_(lit(Value(true)), seq(std::move(body)));
}

StmtPtr service_loop(std::map<std::string, StmtPtr> handlers,
                     sim::Time service_time) {
  // Build the dispatch chain: if (__op == "A") {...} else if ... else nop.
  StmtPtr chain = if_(var("__is_call"), reply(lit(Value())));
  for (auto it = handlers.rbegin(); it != handlers.rend(); ++it) {
    OCSP_CHECK(it->second != nullptr);
    chain = if_(eq(var("__op"), lit(Value(it->first))), it->second, chain);
  }
  std::vector<StmtPtr> body;
  body.push_back(receive());
  if (service_time > 0) body.push_back(compute(service_time));
  body.push_back(std::move(chain));
  return while_(lit(Value(true)), seq(std::move(body)));
}

StmtPtr echo_service(Value reply_value, sim::Time service_time) {
  std::map<std::string, NativeHandler> handlers;
  ServiceConfig config;
  config.service_time = service_time;
  config.unknown_op_reply = std::move(reply_value);
  return native_service(std::move(handlers), std::move(config));
}

}  // namespace ocsp::csp
