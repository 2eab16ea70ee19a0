from .cli import exit_main

exit_main()
