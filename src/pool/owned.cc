#include "pool/owned.h"

#include <cstdio>
#include <cstdlib>

namespace prisma::pool::internal_owned {
namespace {

void DefaultHandler(const std::string& message) {
  std::fprintf(stderr, "PRISMA ownership violation: %s\n", message.c_str());
  std::abort();
}

ViolationHandler g_handler = &DefaultHandler;

}  // namespace

ViolationHandler SetOwnershipViolationHandler(ViolationHandler handler) {
  ViolationHandler previous = g_handler;
  g_handler = handler != nullptr ? handler : &DefaultHandler;
  return previous;
}

void ReportViolation(ProcessId owner, const std::string& what) {
  std::string message =
      what + " owned by process " + std::to_string(owner) + " (" +
      CurrentProcess::NameOf(owner) + ") accessed from handler of process " +
      std::to_string(CurrentProcess::id()) + " (" + CurrentProcess::name() +
      ") — POOL-X processes share no memory; exchange state through Mail";
  g_handler(message);
}

}  // namespace prisma::pool::internal_owned
