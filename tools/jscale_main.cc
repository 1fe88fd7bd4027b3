#include "cli.hh"

int
main(int argc, char **argv)
{
    return jscale::cli::jscaleMain({argv + 1, argv + argc});
}
