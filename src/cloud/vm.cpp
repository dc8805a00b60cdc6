#include "cloud/vm.hpp"

#include "util/error.hpp"
#include "util/strings.hpp"

namespace scidock::cloud {

namespace {
// Prices are the 2014 us-east-1 on-demand rates the paper alludes to
// ("m3 VMs in Amazon are expensive types").
const std::vector<VmType> kCatalogue{
    {"m3.xlarge", 4, "Intel Xeon E5-2670", 1.0, 0.450},
    {"m3.2xlarge", 8, "Intel Xeon E5-2670", 1.0, 0.900},
    {"t1.micro", 1, "variable", 0.35, 0.020},
};
}  // namespace

const VmType& vm_type_m3_xlarge() { return kCatalogue[0]; }
const VmType& vm_type_m3_2xlarge() { return kCatalogue[1]; }

const std::vector<VmType>& vm_catalogue() { return kCatalogue; }

const VmType& vm_type_by_name(std::string_view name) {
  for (const VmType& t : kCatalogue) {
    if (iequals(t.name, name)) return t;
  }
  throw NotFoundError("VM type", name);
}

}  // namespace scidock::cloud
