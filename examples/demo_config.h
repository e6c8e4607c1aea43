/**
 * @file
 * The built-in demo experiment of examples/config_run.cc as config
 * text: transpose traffic on an 8x8 mesh with O1TURN routing and
 * EDVCA. Shared with tests/test_system_builder.cc, which checks that
 * every key in it is read.
 */
#ifndef HORNET_EXAMPLES_DEMO_CONFIG_H
#define HORNET_EXAMPLES_DEMO_CONFIG_H

namespace hornet::examples {

/** Config text config_run runs when given no file. */
inline constexpr const char *kDemoConfig = R"(
# demo: transpose on an 8x8 mesh with O1TURN and EDVCA
[topology]
kind = mesh
width = 8
height = 8

[network]
vcs = 4
vc_capacity = 4
vca = edvca

[routing]
scheme = o1turn

[traffic]
kind = synthetic
pattern = transpose
rate = 0.08
packet_size = 8

[sim]
seed = 42
)";

} // namespace hornet::examples

#endif // HORNET_EXAMPLES_DEMO_CONFIG_H
